package sim

import (
	"testing"
)

func TestSetSlowdownDilatesSleeps(t *testing.T) {
	env := NewEnv()
	env.SetSlowdown(func(name string) float64 {
		if name == "slow" {
			return 3
		}
		return 1
	})
	var fastEnd, slowEnd float64
	env.Go("fast", func(p *Proc) {
		p.Sleep(2)
		fastEnd = p.Now()
	})
	env.Go("slow", func(p *Proc) {
		p.Sleep(2)
		slowEnd = p.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fastEnd != 2 {
		t.Errorf("fast finished at %g, want 2", fastEnd)
	}
	if slowEnd != 6 {
		t.Errorf("slow finished at %g, want 6 (3x dilation)", slowEnd)
	}
}

func TestSlowdownFactorsBelowOneIgnored(t *testing.T) {
	env := NewEnv()
	env.SetSlowdown(func(string) float64 { return 0.1 })
	var end float64
	env.Go("p", func(p *Proc) {
		p.Sleep(5)
		end = p.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5 {
		t.Errorf("sub-unit slowdown changed time: %g, want 5", end)
	}
}

// TestBarrierLeaveReleasesWaiters covers both orderings of the race between
// a leaver and the last arriving waiter.
func TestBarrierLeaveReleasesWaiters(t *testing.T) {
	// Ordering 1: waiters arrive first, then the leaver departs.
	env := NewEnv()
	b := NewBarrier(env, "b", 3)
	released := 0
	for i := 0; i < 2; i++ {
		env.Go("w", func(p *Proc) {
			b.Wait(p)
			released++
		})
	}
	env.Go("leaver", func(p *Proc) {
		p.Sleep(1) // let both waiters park
		b.Leave()
	})
	if _, err := env.Run(); err != nil {
		t.Fatalf("waiters-first: %v", err)
	}
	if released != 2 {
		t.Errorf("waiters-first released %d, want 2", released)
	}
	if b.n != 2 {
		t.Errorf("parties = %d, want 2", b.n)
	}

	// Ordering 2: the leaver departs before the others arrive.
	env2 := NewEnv()
	b2 := NewBarrier(env2, "b2", 3)
	released2 := 0
	env2.Go("leaver", func(p *Proc) { b2.Leave() })
	for i := 0; i < 2; i++ {
		env2.Go("w", func(p *Proc) {
			p.Sleep(1)
			b2.Wait(p)
			released2++
		})
	}
	if _, err := env2.Run(); err != nil {
		t.Fatalf("leaver-first: %v", err)
	}
	if released2 != 2 {
		t.Errorf("leaver-first released %d, want 2", released2)
	}
}

func TestBarrierLeaveStaysCyclic(t *testing.T) {
	env := NewEnv()
	b := NewBarrier(env, "b", 3)
	rounds := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Go("w", func(p *Proc) {
			b.Wait(p) // round 1 at 3 parties... until the leaver departs
			rounds[i]++
			p.Sleep(1)
			b.Wait(p) // round 2 at 2 parties
			rounds[i]++
		})
	}
	env.Go("leaver", func(p *Proc) {
		p.Sleep(0.5)
		b.Leave()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rounds {
		if r != 2 {
			t.Errorf("waiter %d passed %d rounds, want 2", i, r)
		}
	}
}

func TestBarrierLeavePanicsWhenEmpty(t *testing.T) {
	env := NewEnv()
	b := NewBarrier(env, "b", 1)
	defer func() {
		if recover() == nil {
			t.Error("Leave on a 1-party barrier did not panic")
		}
	}()
	b.Leave()
}
