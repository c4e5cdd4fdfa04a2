package sim

import (
	"errors"
	"reflect"
	"runtime"
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

// TestBarrierLeaveReleasesWakerWaiters is TestBarrierLeaveReleasesWaiters
// with chains queued at the barrier in place of parked processes.
func TestBarrierLeaveReleasesWakerWaiters(t *testing.T) {
	for _, leaverFirst := range []bool{false, true} {
		env := NewEnv()
		b := NewBarrier(env, "b", 3)
		released := 0
		if leaverFirst {
			env.Go("leaver", func(p *Proc) { b.Leave() })
		}
		for i := 0; i < 2; i++ {
			env.Go("w", func(p *Proc) {
				runBarChain(b, 1, 1)(p) // arrives at t = 1
				released++
			})
		}
		if !leaverFirst {
			env.Go("leaver", func(p *Proc) {
				p.Sleep(2) // let both chains queue
				b.Leave()
			})
		}
		end, err := env.Run()
		if err != nil {
			t.Fatalf("leaver first %v: %v", leaverFirst, err)
		}
		if released != 2 || b.n != 2 || b.waiters.len() != 0 {
			t.Errorf("leaver first %v: released %d, parties %d, %d still queued; want 2, 2, 0", leaverFirst, released, b.n, b.waiters.len())
		}
		if want := map[bool]float64{false: 2, true: 1}[leaverFirst]; end != want {
			t.Errorf("leaver first %v: released at %g, want %g", leaverFirst, end, want)
		}
	}
}

// TestBarrierChainOneShortIsReportedAndUnwound: chains one arrival short of a
// round are blocked on the barrier as far as Run can tell — the DeadlockError
// names it — and the failed run leaves no goroutine behind.
func TestBarrierChainOneShortIsReportedAndUnwound(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv()
	b := NewBarrier(env, "grp0", 3)
	env.Go("r0", runBarChain(b, 1, 2))
	env.Go("r1", runBarChain(b, 1, 2))
	env.Go("r2", func(p *Proc) { // arrives for the first round only
		p.Sleep(1)
		b.Wait(p)
	})
	_, err := env.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected a DeadlockError, got %v", err)
	}
	want := []BlockedProc{{Name: "r0", WaitingOn: "barrier:grp0"}, {Name: "r1", WaitingOn: "barrier:grp0"}}
	if !reflect.DeepEqual(d.Blocked, want) || d.Time != 2 {
		t.Errorf("at t=%g Blocked = %+v, want %+v at t=2", d.Time, d.Blocked, want)
	}
	if n := settle(base); n > base {
		t.Errorf("%d goroutines before, %d after: the failed run left its chains' processes behind", base, n)
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
