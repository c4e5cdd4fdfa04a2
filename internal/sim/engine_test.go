package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestEventHeapPopsInScheduleOrder: whatever order wake-ups are pushed in,
// they leave the heap by time and, among equal times, by sequence number.
func TestEventHeapPopsInScheduleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var seq uint64
	last := event{at: -1}
	for round := 0; round < 200; round++ {
		for i, n := 0, rng.Intn(20); i < n; i++ {
			seq++
			// Never earlier than what was already popped, as schedule guarantees.
			h.push(event{at: last.at + float64(rng.Intn(4)), seq: seq})
		}
		for i, n := 0, rng.Intn(len(h)+1); i < n; i++ {
			ev := h.pop()
			if !last.before(ev) {
				t.Fatalf("popped (%g, %d) after (%g, %d)", ev.at, ev.seq, last.at, last.seq)
			}
			last = ev
		}
	}
	backing := h[:cap(h)]
	for len(h) > 0 {
		h.pop()
	}
	for i, ev := range backing {
		if ev != (event{}) {
			t.Errorf("drained heap still holds %+v in slot %d", ev, i)
		}
	}
}

// TestFifoClearsAndReusesItsArray: the queues behind Resource, Mailbox and
// Barrier used to pop with q = q[1:], which kept every popped *Proc or
// payload reachable from the backing array and made append re-allocate for
// ever as the window slid along.
func TestFifoClearsAndReusesItsArray(t *testing.T) {
	var q fifo[*int]
	next, want := 0, 0
	push := func() { v := next; next++; q.push(&v) }
	pop := func() {
		if got := *q.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ { // random walk of the depth: order survives growing and sliding
		if q.len() == 0 || rng.Intn(2) == 0 {
			push()
		} else {
			pop()
		}
	}
	for q.len() > 0 {
		pop()
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil {
			t.Errorf("drained queue still holds %d in slot %d", *p, i)
		}
	}

	var depth8 fifo[int]
	for i := 0; i < 8; i++ {
		depth8.push(i)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100000; i++ {
			depth8.push(i)
			depth8.pop()
		}
	})
	if allocs > 2 || cap(depth8.buf) > 32 {
		t.Errorf("1e5 push/pop pairs at depth 8: %v allocations, capacity %d", allocs, cap(depth8.buf))
	}

	// The same through the public surface: a drained mailbox and a drained
	// resource queue hold on to nothing.
	e := NewEnv()
	mb, r := NewMailbox(e, "box"), NewResource(e, "disk", 1)
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			mb.Send(new(int))
		}
	})
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(1)
			mb.Recv(p)
			r.Release()
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range mb.queue.buf[:cap(mb.queue.buf)] {
		if v != nil {
			t.Errorf("drained mailbox still holds a payload in slot %d", i)
		}
	}
	for i, p := range r.waiters.buf[:cap(r.waiters.buf)] {
		if p != nil {
			t.Errorf("idle resource still holds waiter %s in slot %d", p.Name, i)
		}
	}
}

// settle waits for the goroutine count to come back down to base.
func settle(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestFailedRunLeavesNoProcessBehind: a Run that gives up — deadlock, or a
// wake-up in the past — used to leave every parked process blocked for ever.
// Now it unwinds them: deferred calls and the spawn wrapper run, processes
// that never started never do, and no goroutine is left.
func TestFailedRunLeavesNoProcessBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEnv()
		var unwound []string
		e.SetSpawnWrapper(func(name string, fn func()) func() {
			return func() {
				defer func() { unwound = append(unwound, "wrap:"+name) }()
				fn()
			}
		})
		mb, r, bar := NewMailbox(e, "empty"), NewResource(e, "disk", 1), NewBarrier(e, "gate", 2)
		e.Go("holder", func(p *Proc) { r.Acquire(p) })
		e.Go("reader", func(p *Proc) {
			defer func() { unwound = append(unwound, "defer:reader") }()
			mb.Recv(p)
			t.Error("reader got past a Recv nobody served")
		})
		e.Go("queued", func(p *Proc) {
			defer p.Sleep(1) // a deferred wait must not resurrect a stopped process
			p.Sleep(1)
			r.Acquire(p)
			t.Error("queued got past an Acquire nobody released")
		})
		e.Go("lonely", func(p *Proc) { bar.Wait(p) })
		_, err := e.Run()
		var d *DeadlockError
		if !errors.As(err, &d) || len(d.Blocked) != 3 {
			t.Fatalf("expected a DeadlockError with 3 blocked processes, got %v", err)
		}
		want := "wrap:holder defer:reader wrap:reader wrap:queued wrap:lonely"
		if got := strings.Join(unwound, " "); got != want {
			t.Fatalf("unwound %q, want %q", got, want)
		}
	}

	e := NewEnv()
	mb := NewMailbox(e, "empty")
	e.Go("reader", func(p *Proc) { mb.Recv(p) })
	e.Go("rewinder", func(p *Proc) {
		p.Sleep(5)
		e.Go("late", func(*Proc) { t.Error("a process scheduled after the failure ran") })
		e.schedule(1, p) // what no exported call can do
		p.park()
		t.Error("rewinder resumed in the past")
	})
	if end, err := e.Run(); err == nil || !strings.Contains(err.Error(), "time went backwards: 5 -> 1") || end != 5 {
		t.Fatalf("Run = %g, %v; want the time-went-backwards error at 5", end, err)
	}

	if n := settle(base); n > base {
		t.Errorf("%d goroutines before, %d after: failed runs leak their processes", base, n)
	}
}

// contend is the benchmark probe's shape: procs processes, each rounds
// times through acquire, sleep, release on one capacity-4 resource; with
// sync set, each round also passes a message round a ring and a barrier.
func contend(procs, rounds int, sync bool, configure func(*Env)) func() {
	names := make([]string, procs)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	return func() {
		e := NewEnv()
		if configure != nil {
			configure(e)
		}
		r, bar := NewResource(e, "disk", 4), NewBarrier(e, "round", procs)
		boxes := make([]*Mailbox, procs)
		for i := range boxes {
			boxes[i] = NewMailbox(e, names[i])
		}
		for i := 0; i < procs; i++ {
			e.Go(names[i], func(p *Proc) {
				for j := 0; j < rounds; j++ {
					r.Acquire(p)
					p.Sleep(0.001)
					r.Release()
					if sync {
						boxes[(i+1)%procs].Send(p)
						boxes[i].Recv(p)
						bar.Wait(p)
					}
				}
			})
		}
		if _, err := e.Run(); err != nil {
			panic(err)
		}
	}
}

// TestEventsDoNotAllocate: spawning a process costs allocations, an event
// must not. Ten times the rounds over the same processes is ten times the
// events; the allocation counts may differ by the few re-allocations of a
// queue finding its depth and no more.
func TestEventsDoNotAllocate(t *testing.T) {
	const procs = 1000
	for _, sync := range []bool{false, true} {
		perRound := 3.0 // acquire, sleep, release
		if sync {
			perRound = 6 // and send, receive, barrier
		}
		short := testing.AllocsPerRun(3, contend(procs, 10, sync, nil))
		long := testing.AllocsPerRun(3, contend(procs, 100, sync, nil))
		perEvent := (long - short) / (procs * 90 * perRound)
		t.Logf("sync=%v: %.0f allocations at 10 rounds, %.0f at 100: %.4f per extra event", sync, short, long, perEvent)
		if perEvent >= 0.02 {
			t.Errorf("sync=%v: %.4f allocations per extra event (%.0f at 10 rounds, %.0f at 100), want < 0.02", sync, perEvent, short, long)
		}
	}
	plain := testing.AllocsPerRun(3, contend(procs, 10, true, nil))
	nilTracer := testing.AllocsPerRun(3, contend(procs, 10, true, func(e *Env) { e.SetTracer(nil) }))
	if nilTracer != plain {
		t.Errorf("a nil tracer costs %.0f allocations over the %.0f without one", nilTracer-plain, plain)
	}
}
