//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine in the
// style of SimPy. A simulated process is a coroutine (iter.Pull): it runs
// until it waits on virtual time, a capacity-limited resource, a mailbox or
// a barrier, and is switched back in when Run pops its wake-up from the
// event heap. A switch is a direct hand-over on one OS thread — no wake-up,
// no scheduler pass — and an event allocates nothing. Exactly one process
// (or Run) executes at any instant and wake-ups are ordered by (time,
// schedule order) alone, so simulations are deterministic and need no locks.
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
	"sort"

	"senkf/internal/trace"
)

// event is a scheduled process wake-up.
type event struct {
	at   float64
	seq  uint64 // tie-break: FIFO among equal timestamps
	proc *Proc
}

func (a event) before(b event) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// eventHeap is a binary min-heap on (at, seq). seq is unique, so the order
// is total and the pop sequence does not depend on the heap's layout. A
// process has at most one wake-up pending, so the heap never outgrows the
// number of live processes: it stops allocating once they are spawned.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s, i := *h, len(*h)-1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(s[up]) {
			break
		}
		s[i], i = s[up], up
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	e := s[n]
	s[n] = event{} // do not keep the process reachable from the spare capacity
	s = s[:n]
	*h = s
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && s[kid+1].before(s[kid]) {
			kid++
		}
		if !s[kid].before(e) {
			break
		}
		s[i], i = s[kid], kid
	}
	if n > 0 {
		s[i] = e
	}
	return top
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
	seq    uint64
	events eventHeap

	live     int     // processes started and not finished
	procs    []*Proc // every process, in spawn order
	stopping bool    // Run has failed and is unwinding what is left

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

// SetSpawnWrapper installs a wrapper applied to every process body as the
// process starts: it runs wrap(name, body)() instead of body(). runtimeobs uses
// this to run each simulated process under its pprof proc labels; the
// wrapper must call the wrapped body exactly once, synchronously. A nil
// wrap (the default) disables wrapping. Must be set before processes
// start.
func (e *Env) SetSpawnWrapper(wrap func(name string, fn func()) func()) { e.spawnWrap = wrap }

// Proc is a simulated process. Its methods must only be called from within
// the process's own function.
type Proc struct {
	Name    string
	env     *Env
	next    func() (struct{}, bool) // runs the process until it next parks
	stop    func()                  // unwinds a parked process (Env.stopAll)
	yield   func(struct{}) bool     // the process's side of next: park
	handoff any                     // value delivered by a mailbox wake-up

	// What the process is parked on while it has no wake-up of its own:
	// "resource", "mailbox" or "barrier", and the object's name.
	waitKind, waitName string
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// stopped is what park panics with when Run has given up on the simulation.
type stopped struct{}

// Go starts a new process. May be called before Run or from inside a
// running process; in the latter case the new process starts at the current
// virtual time once the caller yields.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, env: e}
	e.live++
	e.tracer.Counters().Inc("sim.procs")
	if e.tracer.Detail() {
		e.tracer.Instant(name, "sim", "start", e.now)
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
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
	e.procs = append(e.procs, p)
	e.schedule(e.now, p)
	return p
}

// schedule enqueues a wake-up for p at time t.
func (e *Env) schedule(t float64, p *Proc) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, proc: p})
}

// park suspends the calling process until Run pops a wake-up for it. When
// that wake-up is already the head of the heap, Run would pop it and switch
// straight back, so the process pops it itself and keeps running: the same
// event leaves the heap at the same point of the sequence, without a switch.
func (p *Proc) park() {
	e := p.env
	if len(e.events) > 0 && e.events[0].proc == p && e.events[0].at >= e.now && !e.stopping {
		e.now = e.events.pop().at
		return
	}
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// wait parks p with no wake-up scheduled: the holder of the named
// synchronization object schedules one. A simulation that runs out of
// events finds here what each remaining process was blocked on.
func (p *Proc) wait(kind, name string) {
	t0 := p.env.now
	p.waitKind, p.waitName = kind, name
	p.park()
	p.waitKind = ""
	if tr := p.env.tracer; tr.Detail() {
		tr.Span(p.Name, "sim", kind+"-wait", t0, p.env.now)
	}
}

// Sleep advances the process by d seconds of virtual time. Negative or NaN
// durations panic — they indicate a broken cost model.
func (p *Proc) Sleep(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: %s slept for invalid duration %g", p.Name, d))
	}
	if p.env.slowdown != nil {
		if f := p.env.slowdown(p.Name); f > 1 {
			d *= f
		}
	}
	p.env.schedule(p.env.now+d, p)
	p.park()
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
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.at < e.now {
			e.stopAll()
			return e.now, fmt.Errorf("sim: time went backwards: %g -> %g", e.now, ev.at)
		}
		e.now = ev.at
		if _, parked := ev.proc.next(); !parked {
			e.live--
		}
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

// stopAll unwinds every unfinished process: a parked one resumes inside
// park, which panics with stopped{} up to the recover in Go — as does any
// wait a deferred call attempts on the way; one that never started never
// will; a finished one is left alone.
func (e *Env) stopAll() {
	e.stopping = true
	for _, p := range e.procs {
		p.stop()
	}
}

// Resource is a FIFO capacity-limited resource (a disk with a bounded
// number of concurrent readers, a network injection port, ...).
type Resource struct {
	Name     string
	env      *Env
	capacity int
	inUse    int
	waiters  fifo[*Proc]
}

// NewResource creates a resource with the given concurrency capacity.
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %s with non-positive capacity %d", name, capacity))
	}
	return &Resource{Name: name, env: e, capacity: capacity}
}

// Acquire takes one unit of capacity, blocking in FIFO order while the
// resource is saturated.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters.push(p)
	reg := r.env.tracer.Counters()
	if reg != nil {
		reg.Inc("sim.resource.waits")
		reg.SetGauge("sim.resource.queue", float64(r.waiters.len()))
	}
	if r.env.tracer.Detail() {
		r.env.tracer.Counter(r.Name, "queue", r.env.now, float64(r.waiters.len()))
	}
	p.wait("resource", r.Name)
	// Capacity was transferred to us by Release.
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

// InUse returns the currently used capacity.
func (r *Resource) InUse() int { return r.inUse }

// Mailbox is an unbounded FIFO message queue between processes. Sends never
// block; receives block until a message is available.
type Mailbox struct {
	Name  string
	env   *Env
	queue fifo[any]
	recvq fifo[*Proc]
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Env, name string) *Mailbox { return &Mailbox{Name: name, env: e} }

// Send enqueues a value, waking the oldest waiting receiver if any.
// It never blocks, so it may be called from any process.
func (m *Mailbox) Send(v any) {
	if m.recvq.len() > 0 {
		w := m.recvq.pop()
		w.handoff = v
		m.env.schedule(m.env.now, w)
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

// Recv dequeues the oldest value, blocking until one is available.
func (m *Mailbox) Recv(p *Proc) any {
	if m.queue.len() > 0 {
		return m.queue.pop()
	}
	m.recvq.push(p)
	p.wait("mailbox", m.Name)
	v := p.handoff
	p.handoff = nil
	return v
}

// Barrier synchronizes a fixed set of n processes: every participant blocks
// in Wait until all n have arrived, then all are released and the barrier
// resets for the next round (a cyclic barrier).
type Barrier struct {
	Name    string
	env     *Env
	n       int
	arrived int
	waiters fifo[*Proc]
}

// NewBarrier creates a cyclic barrier for n participants.
func NewBarrier(e *Env, name string, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("sim: barrier %s with non-positive parties %d", name, n))
	}
	return &Barrier{Name: name, env: e, n: n}
}

// Wait blocks p until all participants of the current round have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.release()
		return
	}
	b.waiters.push(p)
	p.wait("barrier", b.Name)
}

// Leave permanently removes one participant from the barrier — the hook a
// dying process uses so its group does not deadlock waiting for it. If the
// remaining participants have all already arrived, the round is released
// immediately; the order of Leave and the last Wait does not matter.
func (b *Barrier) Leave() {
	if b.n <= 1 {
		panic(fmt.Sprintf("sim: barrier %s would be left with no participants", b.Name))
	}
	b.n--
	if b.arrived >= b.n && b.arrived > 0 {
		b.release()
	}
}

// release ends the current round: every waiter wakes at the current time,
// in arrival order.
func (b *Barrier) release() {
	for b.waiters.len() > 0 {
		b.env.schedule(b.env.now, b.waiters.pop())
	}
	b.arrived = 0
}

// Parties returns the current number of participants.
func (b *Barrier) Parties() int { return b.n }
