//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine in the
// style of SimPy. A simulated process is a Stepper: Run calls its Step on
// each of the process's wake-ups, in place, and the step runs until the
// process must wait — on virtual time (After), a capacity-limited resource
// (Resource.Take), a mailbox (Inbox.Take) or a barrier (Barrier.Arrive) —
// and returns. Waiting is a wake-up scheduled or a place taken in a queue,
// never a switch: a step runs on Run's goroutine, and an event allocates
// nothing. An event wakes a Waker: a process, or a step of work that Run
// executes for a process without waking it — it schedules wake-ups of its
// own (After), queues at resources (Take) and barriers (Arrive) in the
// process's name — and hands the process back control when it is done:
// internal/parfs's read chains, which carry a P-EnKF rank's block reads and
// an S-EnKF reader's whole I/O stage. Exactly one step executes at any
// instant and wake-ups are ordered by (time, schedule order) alone, so
// simulations are deterministic and need no locks. Simulated time advances
// an instant at a time: the queue is a heap of distinct times, each holding
// its wake-ups in FIFO order, so the many wake-ups that fall on one time
// cost the heap one entry (DESIGN.md ch. 35).
//
// Go starts a process written as straight-line code instead: its body is a
// coroutine (iter.Pull) that one Stepper switches in on each wake-up and
// that parks where a Stepper would return (Sleep, Acquire, Recv, Wait).
// The simulated machine's ranks are steppers (DESIGN.md ch. 36); tests and
// the benchmark's engine probe write coroutines.
//
// The engine is the substrate on which the paper's 12,000-processor
// experiments run: each simulated MPI rank is a process, disks are
// capacity-limited resources (see internal/parfs), and messages travel
// through mailboxes with Hockney-model latencies. The schedules of P-EnKF,
// L-EnKF and S-EnKF are executed on this virtual machine to regenerate the
// paper's scaling figures with the exact event structure — queueing at
// disks, waiting for messages, overlap of phases — that produces them.
//
// The build constraint is for iter (Go 1.23); go.mod stays at 1.22 for the
// benchmark module's sake (DESIGN.md ch. 21).
package sim

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"senkf/internal/trace"
)

// A Waker is what an event wakes: a process, or a step Run executes in place.
type Waker interface{ Wake() }

// instant is one simulated time with its wake-ups: a FIFO of links, in
// schedule order. An instant that is not open has at = NaN, which no time
// equals.
type instant struct {
	at         float64
	head, tail int32 // first and last link; head 0: empty. A free instant links the free list through head.
}

// link is one pending wake-up in its instant's FIFO. A free link links the
// free list through next.
type link struct {
	w    Waker
	next int32 // 0: the last
}

// entry is an open instant in the heap, keyed (at, seq): seq is the
// schedule order of the instant's first wake-up, so the order is total.
type entry struct {
	at  float64
	seq uint64
	i   int32
}

func (a entry) before(b entry) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// newestSlots is the size of the direct-mapped cache from a time to the
// newest instant opened for it.
const newestSlots = 64

// eventQueue holds the pending wake-ups: a binary min-heap of instants
// ordered by (at, seq), each instant a FIFO of its wake-ups. A wake-up joins
// the newest instant of its time, which the cache finds, or opens a new one;
// so the instants of one time hold runs of schedule order that do not
// overlap, and popping instant by instant, FIFO within each, is exactly the
// (time, schedule order) sequence (DESIGN ch. 35). Instants and links live
// in slabs whose slot 0 is a sentinel, with free lists; starting a process
// (Spawn, Go) grows both by one, unless Env.Reserve made its room, and a
// process has at most one wake-up pending, so the queue stops allocating once
// the processes are started.
type eventQueue struct {
	heap               []entry
	inst               []instant
	links              []link
	freeInst, freeLink int32
	seq                uint64
	newest             [newestSlots]int32 // by slotOf(at); 0, or an instant no longer open, misses
}

// slotOf maps a time's bits to its cache slot (Fibonacci hashing).
func slotOf(t float64) int { return int(math.Float64bits(t) * 0x9E3779B97F4A7C15 >> 58) }

// grow adds n instants and n links to the free lists, in one allocation per
// slab. The first call also lays down both sentinels and a spare instant: the
// instant Run is draining stays open while empty, so there can be one instant
// more than wake-ups.
func (q *eventQueue) grow(n int) {
	if len(q.inst) == 0 {
		q.inst = append(make([]instant, 0, 2+n), instant{at: math.NaN()}, instant{at: math.NaN()})
		q.links = make([]link, 1, 1+n)
		q.freeInst = 1
	}
	q.inst, q.links = slices.Grow(q.inst, n), slices.Grow(q.links, n)
	for range n {
		q.inst = append(q.inst, instant{at: math.NaN(), head: q.freeInst})
		q.freeInst = int32(len(q.inst) - 1)
		q.links = append(q.links, link{next: q.freeLink})
		q.freeLink = int32(len(q.links) - 1)
	}
	q.heap = slices.Grow(q.heap, len(q.inst)-1-len(q.heap))
}

// push enqueues a wake-up for w at time t.
func (q *eventQueue) push(t float64, w Waker) {
	if q.freeLink == 0 {
		q.grow(1)
	}
	l := q.freeLink
	q.freeLink = q.links[l].next
	q.links[l] = link{w: w}
	newest := &q.newest[slotOf(t)]
	if in := &q.inst[*newest]; in.at == t {
		if in.head == 0 { // the instant Run is draining, emptied
			in.head = l
		} else {
			q.links[in.tail].next = l
		}
		in.tail = l
		return
	}
	if q.freeInst == 0 {
		q.grow(1)
	}
	i := q.freeInst
	in := &q.inst[i]
	q.freeInst = in.head
	*in = instant{at: t, head: l, tail: l}
	*newest = i
	q.seq++
	q.heap = append(q.heap, entry{at: t, seq: q.seq, i: i})
	h, k := q.heap, len(q.heap)-1
	e := h[k]
	for k > 0 {
		up := (k - 1) / 2
		if !e.before(h[up]) {
			break
		}
		h[k], k = h[up], up
	}
	h[k] = e
}

// drop closes the head instant, which is empty, and removes it from the heap.
func (q *eventQueue) drop() {
	i := q.heap[0].i
	q.inst[i] = instant{at: math.NaN(), head: q.freeInst}
	q.freeInst = i
	h, n := q.heap, len(q.heap)-1
	e := h[n]
	h = h[:n]
	q.heap = h
	k := 0
	for {
		kid := 2*k + 1
		if kid >= n {
			break
		}
		if kid+1 < n && h[kid+1].before(h[kid]) {
			kid++
		}
		if !h[kid].before(e) {
			break
		}
		h[k], k = h[kid], kid
	}
	if n > 0 {
		h[k] = e
	}
}

// next returns the first pending wake-up and its time, removing it, and
// false when none is left. The head instant stays open until a later call
// finds it empty, so what is scheduled for its time meanwhile joins it.
func (q *eventQueue) next() (float64, Waker, bool) {
	for len(q.heap) > 0 {
		top := q.heap[0]
		in := &q.inst[top.i]
		if in.head == 0 {
			q.drop()
			continue
		}
		l := in.head
		lk := &q.links[l]
		w := lk.w
		in.head = lk.next
		*lk = link{next: q.freeLink} // do not keep the Waker reachable from the slab
		q.freeLink = l
		return top.at, w, true
	}
	return 0, nil, false
}

// fifo is a queue that reuses its backing array: pop advances a head index
// and clears the slot it vacates, so a popped value is collectable and a
// queue of bounded depth stops allocating.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		// Full with at least half of it vacated: slide down, don't grow.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Env is a simulation environment: a virtual clock and an event queue.
type Env struct {
	now    float64
	events eventQueue

	live  int     // processes started and not finished
	procs []*Proc // every process, in spawn order

	room int    // processes Reserve made the event queue's room for, not yet started
	slab []Proc // the Procs Reserve cut, not yet spawned

	slowdown  func(name string) float64           // per-process sleep multiplier (nil = none)
	spawnWrap func(name string, fn func()) func() // per-process body wrapper (nil = none)
	tracer    *trace.Tracer
}

// NewEnv creates an empty simulation environment at time 0.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// SetTracer attaches a tracer; events are stamped with the virtual clock.
// A nil tracer (the default) disables all instrumentation.
func (e *Env) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer (possibly nil; nil is safe to use).
func (e *Env) Tracer() *trace.Tracer { return e.tracer }

// SetSlowdown installs a per-process virtual-time dilation: every Sleep of
// process name is multiplied by fn(name) when the factor exceeds 1. Fault
// plans use this to model straggler processors without touching the cost
// models. A nil fn (the default) disables dilation.
func (e *Env) SetSlowdown(fn func(name string) float64) { e.slowdown = fn }

// SetSpawnWrapper installs a wrapper through which processes run: wrap is
// called once per process, as it starts, and the function it returns runs
// a coroutine's whole body once, or one step of a stepper each time it is
// called. runtimeobs uses this to run each simulated process under its
// pprof proc labels; the returned function must call what it wraps exactly
// once per call, synchronously. A nil wrap (the default) disables
// wrapping. Must be set before processes start.
func (e *Env) SetSpawnWrapper(wrap func(name string, fn func()) func()) { e.spawnWrap = wrap }

// A Stepper is the body of a process: Step runs on each of p's wake-ups, on
// Run's goroutine, and reports whether p is done. A step that is not the
// last leaves exactly one way to be woken again — a wake-up it scheduled
// (After), or a place in a queue (Resource.Take, Inbox.Take,
// Barrier.Arrive) with p as the Waker — or hands p to a Waker that works for
// it and calls p.Wake when it is through (internal/parfs's read chains). It
// never parks.
type Stepper interface{ Step(p *Proc) bool }

// Proc is a simulated process. Its methods must only be called from within
// the process's own body.
type Proc struct {
	Name    string
	env     *Env
	body    Stepper
	handoff any // value delivered by a mailbox wake-up

	// What the process waits on with no wake-up of its own: "resource",
	// "mailbox" or "barrier", the name, since when — a deadlock's report.
	waitKind, waitName string
	waitFrom           float64
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Reserve makes room for n more processes at once: the next n Spawns cut
// their Procs from one slab, and starting them grows neither the event queue
// nor the process table.
func (e *Env) Reserve(n int) {
	e.events.grow(n)
	e.room += n
	e.procs = slices.Grow(e.procs, n)
	e.slab = make([]Proc, n)
}

// Spawn starts a process whose body is s. May be called before Run or from
// a running process; in the latter case the new process takes its first
// step at the current virtual time, after the caller's.
func (e *Env) Spawn(name string, s Stepper) *Proc {
	var p *Proc
	if len(e.slab) > 0 {
		p, e.slab = &e.slab[0], e.slab[1:]
	} else {
		p = new(Proc)
	}
	*p = Proc{Name: name, env: e, body: s}
	if e.spawnWrap != nil {
		w := &wrapped{s: s, p: p}
		w.run = e.spawnWrap(name, w.step)
		p.body = w
	}
	return e.start(p)
}

// start counts p in and schedules its first wake-up.
func (e *Env) start(p *Proc) *Proc {
	e.live++
	e.tracer.Counters().Inc("sim.procs")
	if e.tracer.Detail() {
		e.tracer.Instant(p.Name, "sim", "start", e.now)
	}
	e.procs = append(e.procs, p)
	if e.room > 0 {
		e.room--
	} else {
		e.events.grow(1)
	}
	e.schedule(e.now, p)
	return p
}

// wrapped runs each step of s inside the spawn wrapper, under its
// process's name.
type wrapped struct {
	s    Stepper
	p    *Proc
	run  func() // the wrapper's: one step of s a call
	done bool
}

func (w *wrapped) step()           { w.done = w.s.Step(w.p) }
func (w *wrapped) Step(*Proc) bool { w.run(); return w.done }

// stopped is what Park panics with when Run has given up on the simulation.
type stopped struct{}

// coroutine is a process Go started, and its Stepper: a step switches the
// body in until it parks or ends. The process lives inside it, so a
// coroutine costs one object besides iter.Pull's, as a Proc did.
type coroutine struct {
	p     Proc
	next  func() (struct{}, bool) // runs the body until it next parks
	stop  func()                  // unwinds a parked body (Env.stopAll)
	yield func(struct{}) bool     // the body's side of next: Park
}

func (c *coroutine) Step(*Proc) bool {
	_, parked := c.next()
	return !parked
}

// Go starts a process whose body is the straight-line fn, run as a
// coroutine that parks where a Stepper would return. May be called before
// Run or from a running process, as Spawn.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	c := &coroutine{p: Proc{Name: name, env: e}}
	p := &c.p
	p.body = c
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			// A stopped process unwinds like any panicking one — deferred
			// calls and the spawn wrapper included — and ends here.
			if r := recover(); r != nil && r != any(stopped{}) {
				panic(r)
			}
		}()
		if e.spawnWrap != nil {
			e.spawnWrap(name, func() { fn(p) })()
		} else {
			fn(p)
		}
	})
	return e.start(p)
}

// schedule enqueues a wake-up for w at time t.
func (e *Env) schedule(t float64, w Waker) { e.events.push(t, w) }

// Wake runs p's next step: Run calls it for p's wake-ups, a Waker working
// for p in place of one, to hand p back control.
func (p *Proc) Wake() {
	if p.body.Step(p) {
		p.env.live--
	}
}

// Park suspends the calling process until it is woken. Only a process Go
// started parks; a Stepper returns instead.
func (p *Proc) Park() {
	c, ok := p.body.(*coroutine)
	if !ok {
		panic(fmt.Sprintf("sim: %s parks, but it is a Stepper", p.Name))
	}
	if !c.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Unblock ends the wait a queueing Take, Arrive or Recv began: the process
// calls it when it resumes, a Waker that queued for it when woken.
func (p *Proc) Unblock() {
	kind := p.waitKind
	p.waitKind = ""
	if tr := p.env.tracer; tr.Detail() {
		tr.Span(p.Name, "sim", kind+"-wait", p.waitFrom, p.env.now)
	}
}

// block records p as waiting, from now, on the named object, whose holder
// wakes it: what a deadlock reports and Unblock ends.
func (p *Proc) block(kind, name string) {
	p.waitKind, p.waitName, p.waitFrom = kind, name, p.env.now
}

// After schedules a wake-up for w d seconds of p's time from now: d is
// dilated by p's slowdown, as a Sleep is. Negative or NaN durations panic —
// they indicate a broken cost model.
func (p *Proc) After(d float64, w Waker) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: %s slept for invalid duration %g", p.Name, d))
	}
	if p.env.slowdown != nil {
		if f := p.env.slowdown(p.Name); f > 1 {
			d *= f
		}
	}
	p.env.schedule(p.env.now+d, w)
}

// Sleep advances the process by d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	p.After(d, p)
	p.Park()
}

// BlockedProc identifies one parked process of a deadlocked simulation and
// the synchronization object it was blocked on.
type BlockedProc struct {
	Name      string
	WaitingOn string // "resource:<name>", "mailbox:<name>" or "barrier:<name>"
}

// DeadlockError reports a simulation that stalled with parked processes.
// Blocked holds every parked process with the resource, mailbox or barrier
// it waits on, so the deadlock is diagnosable from the error alone.
type DeadlockError struct {
	Time    float64
	Blocked []BlockedProc // all parked processes, sorted by name
	Waiting []string      // "name(what)" render of Blocked, same order
}

func (d *DeadlockError) Error() string {
	examples := d.Waiting
	if len(examples) > 8 {
		examples = examples[:8]
	}
	return fmt.Sprintf("sim: deadlock at t=%g with %d blocked processes (e.g. %v)", d.Time, len(d.Waiting), examples)
}

// BlockedOn returns proc name → synchronization object for every parked
// process. The method (rather than the Blocked field) is the contract a
// plan-layer observer duck-types against, so internal/monitor can blame
// the plan edge behind a deadlock without importing this package.
func (d *DeadlockError) BlockedOn() map[string]string {
	m := make(map[string]string, len(d.Blocked))
	for _, b := range d.Blocked {
		m[b.Name] = b.WaitingOn
	}
	return m
}

// Run drives the simulation until no events remain. It returns the final
// virtual time, or a DeadlockError if processes remain blocked on resources
// or mailboxes with an empty event queue. On an error every unfinished
// process is unwound before Run returns, so none outlives the simulation.
func (e *Env) Run() (float64, error) {
	for {
		at, w, ok := e.events.next()
		if !ok {
			break
		}
		if at < e.now {
			e.stopAll()
			return e.now, fmt.Errorf("sim: time went backwards: %g -> %g", e.now, at)
		}
		e.now = at
		w.Wake()
	}
	if e.live > 0 {
		d := &DeadlockError{Time: e.now}
		for _, p := range e.procs {
			if p.waitKind != "" {
				d.Blocked = append(d.Blocked, BlockedProc{Name: p.Name, WaitingOn: p.waitKind + ":" + p.waitName})
			}
		}
		sort.Slice(d.Blocked, func(i, j int) bool { return d.Blocked[i].Name < d.Blocked[j].Name })
		for _, b := range d.Blocked {
			d.Waiting = append(d.Waiting, b.Name+"("+b.WaitingOn+")")
		}
		e.stopAll()
		return e.now, d
	}
	return e.now, nil
}

// stopAll unwinds every unfinished coroutine: a parked one resumes inside
// Park, which panics with stopped{} up to the recover in Go — as does any
// wait a deferred call attempts on the way; one that never started never
// will; a finished one is left alone. A Stepper holds no goroutine: it is
// simply never stepped again.
func (e *Env) stopAll() {
	for _, p := range e.procs {
		if c, ok := p.body.(*coroutine); ok {
			c.stop()
		}
	}
}

// Resource is a FIFO capacity-limited resource (a disk with a bounded
// number of concurrent readers, a network injection port, ...).
type Resource struct {
	Name     string
	env      *Env
	capacity int
	inUse    int
	waiters  fifo[Waker]
}

// NewResource creates a resource with the given concurrency capacity.
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %s with non-positive capacity %d", name, capacity))
	}
	return &Resource{Name: name, env: e, capacity: capacity}
}

// Take takes one unit of capacity for p and reports true if one is free.
// Otherwise it queues w in FIFO order, records p as blocked on the resource
// and reports false: Release passes a unit to w by waking it.
func (r *Resource) Take(p *Proc, w Waker) bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	r.waiters.push(w)
	reg := r.env.tracer.Counters()
	if reg != nil {
		reg.Inc("sim.resource.waits")
		reg.SetGauge("sim.resource.queue", float64(r.waiters.len()))
	}
	if r.env.tracer.Detail() {
		r.env.tracer.Counter(r.Name, "queue", r.env.now, float64(r.waiters.len()))
	}
	p.block("resource", r.Name)
	return false
}

// Acquire takes one unit of capacity, blocking in FIFO order while the
// resource is saturated: a Take, and a park if it queued.
func (r *Resource) Acquire(p *Proc) {
	if !r.Take(p, p) {
		p.Park()
		p.Unblock() // capacity was transferred to us by Release
	}
}

// Release returns one unit of capacity, waking the first waiter (at the
// current virtual time) if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %s", r.Name))
	}
	if r.waiters.len() > 0 {
		// Capacity passes directly to the waiter; inUse stays constant.
		r.env.schedule(r.env.now, r.waiters.pop())
		if r.env.tracer.Detail() {
			r.env.tracer.Counter(r.Name, "queue", r.env.now, float64(r.waiters.len()))
		}
		return
	}
	r.inUse--
}

// Inbox is an unbounded FIFO queue of T values between processes. Sends
// never block; receives wait until a value is available. A value handed to a
// waiting receiver travels as an any (Received), which boxes a T that is not
// pointer-shaped.
type Inbox[T any] struct {
	Name  string
	env   *Env
	queue fifo[T]
	recvq fifo[receiver]
}

// Mailbox is an Inbox of any values.
type Mailbox = Inbox[any]

// receiver is a queued Take: p receives, w is woken.
type receiver struct {
	p *Proc
	w Waker
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Env, name string) *Mailbox { return &Mailbox{Name: name, env: e} }

// NewInboxes creates len(room) empty inboxes, unnamed, inbox i with room for
// room[i] queued values and for one waiting receiver. The inboxes, their
// queues and their receiver queues are cut from one slab apiece: sized for
// its sends and one receiver, an inbox never grows.
func NewInboxes[T any](e *Env, room []int) []Inbox[T] {
	total := 0
	for _, n := range room {
		total += n
	}
	boxes, queues, recvs := make([]Inbox[T], len(room)), make([]T, total), make([]receiver, len(room))
	for i, n := range room {
		boxes[i] = Inbox[T]{env: e, queue: fifo[T]{buf: queues[:0:n]}, recvq: fifo[receiver]{buf: recvs[i : i : i+1]}}
		queues = queues[n:]
	}
	return boxes
}

// Send enqueues a value, handing it to the oldest waiting receiver if any.
// It never blocks, so it may be called from any process.
func (m *Inbox[T]) Send(v T) {
	if m.recvq.len() > 0 {
		r := m.recvq.pop()
		r.p.handoff = v
		m.env.schedule(m.env.now, r.w)
		return
	}
	m.queue.push(v)
	reg := m.env.tracer.Counters()
	if reg != nil {
		// One global gauge: its high-water mark is the deepest any mailbox
		// ever got (per-mailbox gauges would explode at 12k-rank scale).
		reg.SetGauge("sim.mailbox.depth", float64(m.queue.len()))
	}
	if m.env.tracer.Detail() {
		m.env.tracer.Counter(m.Name, "depth", m.env.now, float64(m.queue.len()))
	}
}

// Take dequeues the oldest value for p and reports true if one is queued.
// Otherwise it queues w in FIFO order, records p as blocked on the mailbox
// and reports false: the next Send hands its value to p (Received) and
// wakes w.
func (m *Inbox[T]) Take(p *Proc, w Waker) (T, bool) {
	if m.queue.len() > 0 {
		return m.queue.pop(), true
	}
	m.recvq.push(receiver{p: p, w: w})
	p.block("mailbox", m.Name)
	var zero T
	return zero, false
}

// Received returns the value a Send handed p when it woke a queued Take,
// and forgets it.
func (p *Proc) Received() any {
	v := p.handoff
	p.handoff = nil
	return v
}

// Recv dequeues the oldest value, waiting until one is available: a Take,
// and a park if it queued.
func (m *Inbox[T]) Recv(p *Proc) T {
	if v, ok := m.Take(p, p); ok {
		return v
	}
	p.Park()
	p.Unblock()
	v, _ := p.Received().(T) // a nil any is T's zero value
	return v
}

// Barrier synchronizes a fixed set of n participants: each arrival waits
// until all n have arrived, then all are released and the barrier resets for
// the next round (a cyclic barrier).
type Barrier struct {
	Name    string
	env     *Env
	n       int
	arrived int
	waiters fifo[Waker]
}

// NewBarrier creates a cyclic barrier for n participants. Its queue is sized
// for a round, so the barrier never regrows.
func NewBarrier(e *Env, name string, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("sim: barrier %s with non-positive parties %d", name, n))
	}
	return &Barrier{Name: name, env: e, n: n, waiters: fifo[Waker]{buf: make([]Waker, 0, n-1)}}
}

// Arrive counts p in to the current round and reports true if that completes
// it: the round is released and p goes on. Otherwise it queues w, records p as
// blocked on the barrier and reports false: the round's release wakes w.
func (b *Barrier) Arrive(p *Proc, w Waker) bool {
	if b.arrived++; b.arrived == b.n {
		b.release()
		return true
	}
	b.waiters.push(w)
	p.block("barrier", b.Name)
	return false
}

// Wait blocks p until all participants of the current round have arrived: an
// Arrive, and a park if it queued.
func (b *Barrier) Wait(p *Proc) {
	if !b.Arrive(p, p) {
		p.Park()
		p.Unblock()
	}
}

// Leave permanently removes one participant from the barrier — the hook a
// dying process uses so its group does not deadlock waiting for it. If the
// remaining participants have all already arrived, the round is released
// immediately; the order of Leave and the last Arrive does not matter.
func (b *Barrier) Leave() {
	if b.n <= 1 {
		panic(fmt.Sprintf("sim: barrier %s would be left with no participants", b.Name))
	}
	b.n--
	if b.arrived >= b.n && b.arrived > 0 {
		b.release()
	}
}

// release ends the current round: every queued Waker wakes at the current
// time, in arrival order.
func (b *Barrier) release() {
	for b.waiters.len() > 0 {
		b.env.schedule(b.env.now, b.waiters.pop())
	}
	b.arrived = 0
}
