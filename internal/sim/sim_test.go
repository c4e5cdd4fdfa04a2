package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"senkf/internal/trace"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var at float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		p.Sleep(1.5)
		at = p.Now()
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at != 4.0 || end != 4.0 {
		t.Errorf("time = %g / end %g, want 4", at, end)
	}
}

func TestZeroProcsRunImmediately(t *testing.T) {
	e := NewEnv()
	end, err := e.Run()
	if err != nil || end != 0 {
		t.Errorf("empty run = %g, %v", end, err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	runOnce := func() []string {
		e := NewEnv()
		var order []string
		for i, d := range []float64{3, 1, 2} {
			name := string(rune('a' + i))
			delay := d
			e.Go(name, func(p *Proc) {
				p.Sleep(delay)
				order = append(order, p.Name)
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"b", "c", "a"}
	for trial := 0; trial < 5; trial++ {
		got := runOnce()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order %v, want %v", trial, got, want)
			}
		}
	}
}

func TestEqualTimestampsAreFIFO(t *testing.T) {
	e := NewEnv()
	var order []string
	for i := 0; i < 5; i++ {
		name := string(rune('0' + i))
		e.Go(name, func(p *Proc) {
			p.Sleep(1) // all wake at t=1
			order = append(order, p.Name)
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != string(rune('0'+i)) {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestSleepPanicsOnInvalidDuration(t *testing.T) {
	e := NewEnv()
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	// The process panics and recovers, then ends normally.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEnv()
	e2.Go("nan", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for NaN sleep")
			}
		}()
		p.Sleep(math.NaN())
	})
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "disk", 2)
	var maxInUse int
	done := 0
	for i := 0; i < 6; i++ {
		e.Go("reader", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(1)
			r.Release()
			done++
		})
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if maxInUse != 2 {
		t.Errorf("max concurrency %d, want 2", maxInUse)
	}
	if done != 6 {
		t.Errorf("completed %d, want 6", done)
	}
	// 6 unit jobs at concurrency 2 take 3 time units.
	if end != 3 {
		t.Errorf("end = %g, want 3", end)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "disk", 1)
	var order []int
	for i := 0; i < 4; i++ {
		id := i
		e.Go("w", func(p *Proc) {
			p.Sleep(float64(id) * 0.001) // stagger arrival in id order
			r.Acquire(p)
			order = append(order, id)
			p.Sleep(1)
			r.Release()
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

func TestResourceValidation(t *testing.T) {
	e := NewEnv()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for zero capacity")
			}
		}()
		NewResource(e, "bad", 0)
	}()
	r := NewResource(e, "ok", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for idle release")
			}
		}()
		r.Release()
	}()
}

func TestMailboxDeliversInOrder(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox(e, "mb")
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			mb.Send(i)
			p.Sleep(1)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Recv(p).(int))
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestMailboxBlocksConsumerUntilSend(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox(e, "mb")
	var recvAt float64
	e.Go("consumer", func(p *Proc) {
		mb.Recv(p)
		recvAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(7)
		mb.Send("x")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 7 {
		t.Errorf("recv at %g, want 7", recvAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox(e, "never")
	e.Go("stuck", func(p *Proc) {
		mb.Recv(p)
	})
	_, err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(d.Waiting) != 1 || d.Waiting[0] != "stuck(mailbox:never)" {
		t.Errorf("waiting = %v", d.Waiting)
	}
}

func TestResourceDeadlockDetection(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "disk", 1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p) // never released
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p)
	})
	_, err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	e := NewEnv()
	var childEnd float64
	e.Go("parent", func(p *Proc) {
		p.Sleep(2)
		e.Go("child", func(c *Proc) {
			c.Sleep(3)
			childEnd = c.Now()
		})
		p.Sleep(1)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if childEnd != 5 {
		t.Errorf("child ended at %g, want 5", childEnd)
	}
	if end != 5 {
		t.Errorf("sim ended at %g, want 5", end)
	}
}

func TestManyProcesses(t *testing.T) {
	// The scaling experiments run ~12k processes; make sure the engine
	// handles that comfortably.
	e := NewEnv()
	const n = 12000
	r := NewResource(e, "disk", 8)
	finished := 0
	for i := 0; i < n; i++ {
		e.Go("p", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(0.001)
			r.Release()
			finished++
		})
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Errorf("finished %d of %d", finished, n)
	}
	want := float64(n) * 0.001 / 8
	if math.Abs(end-want) > 1e-6 {
		t.Errorf("end = %g, want %g", end, want)
	}
}

func TestNowVisibleFromEnvAndProc(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) {
		p.Sleep(1.25)
		if p.Env() != e {
			t.Error("Env() mismatch")
		}
		if p.Now() != e.Now() {
			t.Error("Now() mismatch")
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1.25 {
		t.Errorf("env now = %g", e.Now())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, "b", 3)
	var releases []float64
	for i := 1; i <= 3; i++ {
		d := float64(i)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 3 {
		t.Fatalf("releases %v", releases)
	}
	for _, r := range releases {
		if r != 3 {
			t.Errorf("released at %g, want 3 (slowest arrival)", r)
		}
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	e := NewEnv()
	b := NewBarrier(e, "b", 2)
	rounds := make([][]float64, 2)
	for i := 0; i < 2; i++ {
		id := i
		e.Go("w", func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(float64(id + 1)) // ids arrive staggered each round
				b.Wait(p)
				rounds[id] = append(rounds[id], p.Now())
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if len(rounds[id]) != 3 {
			t.Fatalf("proc %d completed %d rounds", id, len(rounds[id]))
		}
	}
	// Both procs release together each round, paced by the slower one.
	for r := 0; r < 3; r++ {
		if rounds[0][r] != rounds[1][r] {
			t.Errorf("round %d released at different times: %g vs %g", r, rounds[0][r], rounds[1][r])
		}
		if rounds[0][r] != float64(2*(r+1)) {
			t.Errorf("round %d at %g, want %g", r, rounds[0][r], float64(2*(r+1)))
		}
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0 barrier")
		}
	}()
	NewBarrier(NewEnv(), "bad", 0)
}

func TestDeadlockErrorListsAllBlockedProcesses(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox(e, "empty")
	r := NewResource(e, "disk", 1)
	bar := NewBarrier(e, "gate", 2)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p) // never released
	})
	e.Go("reader", func(p *Proc) {
		mb.Recv(p)
	})
	e.Go("queued", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p)
	})
	e.Go("lonely", func(p *Proc) {
		bar.Wait(p) // second participant never arrives
	})
	_, err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	want := []BlockedProc{
		{Name: "lonely", WaitingOn: "barrier:gate"},
		{Name: "queued", WaitingOn: "resource:disk"},
		{Name: "reader", WaitingOn: "mailbox:empty"},
	}
	if len(d.Blocked) != len(want) {
		t.Fatalf("Blocked = %+v, want %+v", d.Blocked, want)
	}
	for i, w := range want {
		if d.Blocked[i] != w {
			t.Errorf("Blocked[%d] = %+v, want %+v", i, d.Blocked[i], w)
		}
	}
	// The Waiting render matches the Blocked list entry for entry.
	if len(d.Waiting) != len(d.Blocked) || d.Waiting[0] != "lonely(barrier:gate)" {
		t.Errorf("Waiting = %v", d.Waiting)
	}
	// "holder" holds the resource but is not parked: it finished, so it
	// must not be listed.
	for _, b := range d.Blocked {
		if b.Name == "holder" {
			t.Errorf("finished process listed as blocked: %+v", b)
		}
	}
	// BlockedOn is the duck-typed map contract the plan-layer observer
	// consumes; it must mirror Blocked exactly.
	m := d.BlockedOn()
	if len(m) != len(want) {
		t.Fatalf("BlockedOn = %v", m)
	}
	for _, w := range want {
		if m[w.Name] != w.WaitingOn {
			t.Errorf("BlockedOn[%s] = %q, want %q", w.Name, m[w.Name], w.WaitingOn)
		}
	}
}

func TestDeadlockErrorTruncatesMessageNotList(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox(e, "empty")
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("stuck%02d", i)
		e.Go(name, func(p *Proc) { mb.Recv(p) })
	}
	_, err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(d.Blocked) != 12 || len(d.Waiting) != 12 {
		t.Fatalf("list truncated: %d blocked, %d waiting", len(d.Blocked), len(d.Waiting))
	}
	msg := d.Error()
	if !strings.Contains(msg, "12 blocked") || strings.Contains(msg, "stuck09") {
		t.Errorf("message should count all but show at most 8: %q", msg)
	}
}

func TestSimTracingDetailEvents(t *testing.T) {
	e := NewEnv()
	buf := trace.NewBuffer()
	tr := trace.New(func() float64 { return e.Now() }, buf)
	tr.SetDetail(true)
	tr.SetCounters(trace.NewRegistry())
	e.SetTracer(tr)
	if e.Tracer() != tr {
		t.Fatal("Tracer() did not return the attached tracer")
	}

	r := NewResource(e, "disk", 1)
	mb := NewMailbox(e, "box")
	e.Go("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(2)
		r.Release()
		mb.Send(1)
	})
	e.Go("b", func(p *Proc) {
		r.Acquire(p) // waits until t=2
		r.Release()
		mb.Recv(p)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	var resourceWait, mailboxDepth bool
	for _, ev := range buf.Events() {
		if ev.Cat == "sim" && ev.Name == "resource-wait" && ev.Track == "b" {
			if ev.Ts != 0 || ev.Dur != 2 {
				t.Errorf("resource-wait span = %+v, want [0,2]", ev)
			}
			resourceWait = true
		}
		if ev.Ph == trace.PhaseCounter && ev.Track == "box" && ev.Name == "depth" {
			mailboxDepth = true
		}
	}
	if !resourceWait {
		t.Error("no resource-wait span emitted")
	}
	if !mailboxDepth {
		t.Error("no mailbox depth counter emitted")
	}
	reg := tr.Counters()
	if got := reg.CounterValue("sim.procs"); got != 2 {
		t.Errorf("sim.procs = %v, want 2", got)
	}
	if got := reg.CounterValue("sim.resource.waits"); got != 1 {
		t.Errorf("sim.resource.waits = %v, want 1", got)
	}
	if got := reg.GaugeMax("sim.mailbox.depth"); got != 1 {
		t.Errorf("sim.mailbox.depth high-water = %v, want 1", got)
	}
}
