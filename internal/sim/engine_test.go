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

// tag is a Waker that only names a wake-up.
type tag int

func (tag) Wake() {}

// colliders returns n distinct whole-second times from 1 up that share one
// slot of the queue's time cache.
func colliders(n int) []float64 {
	var out []float64
	for k := 1; len(out) < n; k++ {
		if t := float64(k); slotOf(t) == slotOf(1) {
			out = append(out, t)
		}
	}
	return out
}

// TestEventQueuePopsInScheduleOrder holds the queue to a reference: pushed
// wake-ups leave by time and, among equal times, in push order — a stable
// sort on (at, seq). The inputs run long ties, times that collide in one
// cache slot, instants that empty and reopen for the same and for other
// times, and pushes at now while now's instant drains.
func TestEventQueuePopsInScheduleOrder(t *testing.T) {
	type want struct {
		at  float64
		tag tag
	}
	coll := colliders(64)
	for _, mode := range []string{"ties", "collisions", "reopen", "draining"} {
		rng := rand.New(rand.NewSource(7))
		var q eventQueue
		var ref []want // pending, in push order
		now, pushed, popped := 0.0, 0, 0
		push := func(at float64) {
			q.push(at, tag(pushed))
			ref = append(ref, want{at, tag(pushed)})
			pushed++
		}
		pop := func() {
			k := 0 // the stable sort's first: the earliest push of the least time
			for j := range ref {
				if ref[j].at < ref[k].at {
					k = j
				}
			}
			w := ref[k]
			ref = append(ref[:k], ref[k+1:]...)
			at, got, ok := q.next()
			if !ok || at != w.at || got != w.tag {
				t.Fatalf("%s: pop %d = (%g, %v, %v), want (%g, %d)", mode, popped, at, got, ok, w.at, w.tag)
			}
			now = at
			popped++
		}
		// at draws a time no earlier than now, as schedule guarantees.
		at := func() float64 {
			switch mode {
			case "ties":
				return now + float64(rng.Intn(3))
			case "collisions":
				for _, c := range coll {
					if c >= now && rng.Intn(3) == 0 {
						return c
					}
				}
				return now
			case "reopen":
				return now + float64(rng.Intn(2))
			}
			return now // draining: every push lands on the instant being drained
		}
		for round := 0; round < 300; round++ {
			for i, n := 0, rng.Intn(30); i < n; i++ {
				push(at())
			}
			switch mode {
			case "reopen": // empty the queue: every instant closes, and the next round reopens them
				for len(ref) > 0 {
					pop()
				}
			case "draining": // pops and pushes at now interleave
				for i, n := 0, rng.Intn(len(ref)+1); i < n; i++ {
					pop()
					if rng.Intn(2) == 0 {
						push(now)
					}
				}
				if len(ref) == 0 {
					now++
				}
			default:
				for i, n := 0, rng.Intn(len(ref)+1); i < n; i++ {
					pop()
				}
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if _, w, ok := q.next(); ok {
			t.Fatalf("%s: the queue pops %v after the reference emptied", mode, w)
		}
		for i, l := range q.links {
			if l.w != nil {
				t.Errorf("%s: drained queue still holds %v in link %d", mode, l.w, i)
			}
		}
		t.Logf("%s: %d wake-ups, %d instants and %d links in the slabs", mode, pushed, len(q.inst)-1, len(q.links)-1)
	}
}

// TestEqualTimesShareOneInstant: wake-ups for one time queue in one instant,
// so a thousand processes asleep until t = 5 are one entry of the heap.
func TestEqualTimesShareOneInstant(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 1000; i++ {
		e.Go("sleeper", func(p *Proc) { p.Sleep(5) })
	}
	e.Go("watcher", func(p *Proc) {
		p.Sleep(1)
		var holding []entry
		for _, h := range e.events.heap {
			if e.events.inst[h.i].head != 0 {
				holding = append(holding, h)
			}
		}
		if len(holding) != 1 || holding[0].at != 5 {
			t.Fatalf("instants with wake-ups at t=1: %+v, want one at 5", holding)
		}
		n := 0
		for l := e.events.inst[holding[0].i].head; l != 0; l = e.events.links[l].next {
			n++
		}
		if n != 1000 {
			t.Errorf("the instant at 5 holds %d wake-ups, want 1000", n)
		}
	})
	if end, err := e.Run(); err != nil || end != 5 {
		t.Fatalf("Run = %g, %v", end, err)
	}
}

// TestQueueIsSizedBySpawning: the slabs grow as processes spawn and never as
// they run. A thousand processes hop between four times that share a cache
// slot, so most pushes open an instant; yet Run finds every instant, link and
// heap slot it needs already laid down by Go.
func TestQueueIsSizedBySpawning(t *testing.T) {
	coll := colliders(4 * 20)
	rng := rand.New(rand.NewSource(5))
	e := NewEnv()
	for i := 0; i < 1000; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(coll[4*j+rng.Intn(4)] - p.Now())
			}
		})
	}
	q := &e.events
	size := func() [3]int { return [3]int{len(q.inst), len(q.links), cap(q.heap)} }
	spawned := size()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran := size(); ran != spawned || q.seq < 10000 {
		t.Errorf("instants, links, heap capacity: %v after spawning, %v after %d instants opened", spawned, ran, q.seq)
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
	for i, w := range r.waiters.buf[:cap(r.waiters.buf)] {
		if w != nil {
			t.Errorf("idle resource still holds waiter %s in slot %d", w.(*Proc).Name, i)
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

// chain is a Waker working for p: rounds times it takes r — queueing for it
// as p, if it must — holds it for hold seconds of p's time and releases it,
// without switching p in; then it hands p back control.
type chain struct {
	p             *Proc
	r             *Resource
	hold          float64
	rounds        int
	queued, holds bool
}

// start begins the next round and reports whether none was left.
func (c *chain) start() bool {
	if c.rounds == 0 {
		return true
	}
	if c.queued = !c.r.Take(c.p, c); !c.queued {
		c.holds = true
		c.p.After(c.hold, c)
	}
	return false
}

func (c *chain) Wake() {
	switch {
	case c.queued: // woken holding r
		c.p.Unblock()
		c.queued, c.holds = false, true
		c.p.After(c.hold, c)
		return
	case c.holds:
		c.r.Release()
		c.holds = false
		c.rounds--
	}
	if c.start() {
		c.p.Wake()
	}
}

// runChain is a process body that hands rounds of r to a chain and parks.
func runChain(r *Resource, hold float64, rounds int) func(p *Proc) {
	return func(p *Proc) {
		if c := (&chain{p: p, r: r, hold: hold, rounds: rounds}); !c.start() {
			p.Park()
		}
	}
}

// barChain is a Waker working for p: rounds times it holds for hold seconds
// of p's time and arrives at bar — queueing itself, if the round is not
// complete — without switching p in; then it hands p back control.
type barChain struct {
	p      *Proc
	bar    *Barrier
	hold   float64
	rounds int
	queued bool
}

func (c *barChain) Wake() {
	if c.queued { // the round was released
		c.p.Unblock()
		c.queued = false
	} else if c.queued = !c.bar.Arrive(c.p, c); c.queued {
		return
	}
	if c.rounds--; c.rounds == 0 {
		c.p.Wake()
		return
	}
	c.p.After(c.hold, c)
}

// runBarChain is a process body that hands rounds of bar to a chain and parks.
func runBarChain(bar *Barrier, hold float64, rounds int) func(p *Proc) {
	return func(p *Proc) {
		p.After(hold, &barChain{p: p, bar: bar, hold: hold, rounds: rounds})
		p.Park()
	}
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
		mb, r, bar, gate := NewMailbox(e, "empty"), NewResource(e, "disk", 1), NewBarrier(e, "gate", 2), NewBarrier(e, "files", 3)
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
		e.Go("chained", func(p *Proc) {
			defer func() { unwound = append(unwound, "defer:chained") }()
			runChain(r, 1, 2)(p) // its chain queues behind the holder
			t.Error("chained got past a chain nobody served")
		})
		e.Go("gated", func(p *Proc) {
			defer func() { unwound = append(unwound, "defer:gated") }()
			runBarChain(gate, 1, 2)(p) // its chain parks in a round nobody completes
			t.Error("gated got past a barrier nobody completed")
		})
		_, err := e.Run()
		var d *DeadlockError
		if !errors.As(err, &d) || len(d.Blocked) != 5 {
			t.Fatalf("expected a DeadlockError with 5 blocked processes, got %v", err)
		}
		if d.Blocked[0] != (BlockedProc{Name: "chained", WaitingOn: "resource:disk"}) {
			t.Errorf("Blocked[0] = %+v, want chained on resource:disk", d.Blocked[0])
		}
		if d.Blocked[1] != (BlockedProc{Name: "gated", WaitingOn: "barrier:files"}) {
			t.Errorf("Blocked[1] = %+v, want gated on barrier:files", d.Blocked[1])
		}
		want := "wrap:holder defer:reader wrap:reader wrap:queued wrap:lonely defer:chained wrap:chained defer:gated wrap:gated"
		if got := strings.Join(unwound, " "); got != want {
			t.Fatalf("unwound %q, want %q", got, want)
		}
	}

	e := NewEnv()
	mb, r := NewMailbox(e, "empty"), NewResource(e, "disk", 1)
	e.Go("reader", func(p *Proc) { mb.Recv(p) })
	// Two chains in flight when time goes backwards: one holding the disk
	// with its release due, one queued behind it; and one parked at a
	// barrier whose other party is not due yet.
	e.Go("holding", runChain(r, 10, 1))
	e.Go("waiting", runChain(r, 10, 1))
	bar := NewBarrier(e, "files", 2)
	e.Go("gated", runBarChain(bar, 1, 1))
	e.Go("late-party", func(p *Proc) {
		p.Sleep(20)
		bar.Wait(p)
	})
	e.Go("rewinder", func(p *Proc) {
		p.Sleep(5)
		e.Go("late", func(*Proc) { t.Error("a process scheduled after the failure ran") })
		e.schedule(1, p) // what no exported call can do
		p.Park()
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
	// Chains: each event wakes a Waker that works in place for its process
	// — one to end a hold, one more to hand over a unit a chain queued for.
	chains := func(rounds int) func() {
		return func() {
			e := NewEnv()
			r := NewResource(e, "disk", 4)
			for i := 0; i < procs; i++ {
				e.Go("p", runChain(r, 0.001, rounds))
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
	}
	// Chains at barriers: a hold, then an arrival that queues the chain
	// unless it completes the round of its group of ten — 1.9 events per
	// chain and round.
	barChains := func(rounds int) func() {
		return func() {
			e := NewEnv()
			var bar *Barrier
			for i := 0; i < procs; i++ {
				if i%10 == 0 {
					bar = NewBarrier(e, "files", 10)
				}
				e.Go("p", runBarChain(bar, 0.001, rounds))
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
	}
	// No ties: process i sleeps 1 + i·1e-6 s a round, so no two wake-ups
	// share a time and each opens an instant of its own.
	distinct := func(rounds int) func() {
		return func() {
			e := NewEnv()
			for i := 0; i < procs; i++ {
				d := 1 + float64(i)*1e-6
				e.Go("p", func(p *Proc) {
					for j := 0; j < rounds; j++ {
						p.Sleep(d)
					}
				})
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
	}
	// Colliding times: round j wakes each process at a random one of four
	// times in one cache slot, coll[4j..4j+3], so three pushes in four evict
	// the instant the push before opened: instants open and close by the
	// thousand, several to a time.
	coll := colliders(4 * 100)
	pick := make([]int, procs*100)
	rng := rand.New(rand.NewSource(3))
	for k := range pick {
		pick[k] = rng.Intn(4)
	}
	colliding := func(rounds int) func() {
		return func() {
			e := NewEnv()
			for i := 0; i < procs; i++ {
				e.Go("p", func(p *Proc) {
					for j := 0; j < rounds; j++ {
						p.Sleep(coll[4*j+pick[100*i+j]] - p.Now())
					}
				})
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
	}
	for _, c := range []struct {
		name     string
		run      func(rounds int) func()
		perRound float64 // events per process and round
	}{
		{"chains", chains, 2},
		{"barrier chains", barChains, 1.9},
		{"no ties", distinct, 1},
		{"colliding instants", colliding, 1},
	} {
		short, long := testing.AllocsPerRun(3, c.run(10)), testing.AllocsPerRun(3, c.run(100))
		perEvent := (long - short) / (procs * 90 * c.perRound)
		t.Logf("%s: %.0f allocations at 10 rounds, %.0f at 100: %.4f per extra event", c.name, short, long, perEvent)
		if perEvent >= 0.02 {
			t.Errorf("%s: %.4f allocations per extra event (%.0f at 10 rounds, %.0f at 100), want < 0.02", c.name, perEvent, short, long)
		}
	}
	plain := testing.AllocsPerRun(3, contend(procs, 10, true, nil))
	nilTracer := testing.AllocsPerRun(3, contend(procs, 10, true, func(e *Env) { e.SetTracer(nil) }))
	if nilTracer != plain {
		t.Errorf("a nil tracer costs %.0f allocations over the %.0f without one", nilTracer-plain, plain)
	}
}
