// Package sim is a deterministic discrete-event simulation engine in the
// style of SimPy: simulated processes are goroutines that explicitly yield
// to a central scheduler whenever they wait on virtual time, a capacity-
// limited resource, or a mailbox. Exactly one goroutine (a process or the
// scheduler) runs at any instant, so simulations are fully deterministic
// and need no locking.
//
// The engine is the substrate on which the paper's 12,000-processor
// experiments run: each simulated MPI rank is a process, disks are
// capacity-limited resources (see internal/parfs), and messages travel
// through mailboxes with Hockney-model latencies. The schedules of P-EnKF,
// L-EnKF and S-EnKF are executed on this virtual machine to regenerate the
// paper's scaling figures with the exact event structure — queueing at
// disks, waiting for messages, overlap of phases — that produces them.
package sim

import (
	"container/heap"
	"fmt"
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

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// Env is a simulation environment: a virtual clock and an event queue.
type Env struct {
	now     float64
	seq     uint64
	events  eventHeap
	yieldCh chan struct{}

	live    int              // processes started and not finished
	blocked map[*Proc]string // parked with no scheduled wake-up: what they wait on

	slowdown func(name string) float64 // per-process sleep multiplier (nil = none)

	spawnWrap func(name string, fn func()) func() // per-process body wrapper (nil = none)

	tracer *trace.Tracer
}

// NewEnv creates an empty simulation environment at time 0.
func NewEnv() *Env {
	return &Env{
		yieldCh: make(chan struct{}),
		blocked: map[*Proc]string{},
	}
}

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

// SetSpawnWrapper installs a wrapper applied to every process body at Go:
// the process runs wrap(name, body)() instead of body(). runtimeobs uses
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
	resume  chan struct{}
	handoff any // value delivered by a mailbox or resource wake-up
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Go starts a new process. May be called before Run or from inside a
// running process; in the latter case the new process starts at the current
// virtual time once the caller yields.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, env: e, resume: make(chan struct{})}
	e.live++
	e.tracer.Counters().Inc("sim.procs")
	if e.tracer.Detail() {
		e.tracer.Instant(name, "sim", "start", e.now)
	}
	body := func() { fn(p) }
	if e.spawnWrap != nil {
		body = e.spawnWrap(name, body)
	}
	go func() {
		<-p.resume
		body()
		e.live--
		e.yieldCh <- struct{}{}
	}()
	e.schedule(e.now, p)
	return p
}

// schedule enqueues a wake-up for p at time t.
func (e *Env) schedule(t float64, p *Proc) {
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, proc: p})
}

// park transfers control from the calling process back to the scheduler and
// blocks until the scheduler resumes the process.
func (p *Proc) park() {
	p.env.yieldCh <- struct{}{}
	<-p.resume
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
// or mailboxes with an empty event queue.
func (e *Env) Run() (float64, error) {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		if ev.at < e.now {
			return e.now, fmt.Errorf("sim: time went backwards: %g -> %g", e.now, ev.at)
		}
		e.now = ev.at
		ev.proc.resume <- struct{}{}
		<-e.yieldCh
	}
	if e.live > 0 {
		d := &DeadlockError{Time: e.now}
		for p, what := range e.blocked {
			d.Blocked = append(d.Blocked, BlockedProc{Name: p.Name, WaitingOn: what})
		}
		sort.Slice(d.Blocked, func(i, j int) bool { return d.Blocked[i].Name < d.Blocked[j].Name })
		for _, b := range d.Blocked {
			d.Waiting = append(d.Waiting, b.Name+"("+b.WaitingOn+")")
		}
		return e.now, d
	}
	return e.now, nil
}

// Resource is a FIFO capacity-limited resource (a disk with a bounded
// number of concurrent readers, a network injection port, ...).
type Resource struct {
	Name     string
	env      *Env
	capacity int
	inUse    int
	waiters  []*Proc
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
	r.waiters = append(r.waiters, p)
	r.env.blocked[p] = "resource:" + r.Name
	reg := r.env.tracer.Counters()
	if reg != nil {
		reg.Inc("sim.resource.waits")
		reg.SetGauge("sim.resource.queue", float64(len(r.waiters)))
	}
	t0 := r.env.now
	if r.env.tracer.Detail() {
		r.env.tracer.Counter(r.Name, "queue", t0, float64(len(r.waiters)))
	}
	p.park()
	delete(r.env.blocked, p)
	if r.env.tracer.Detail() {
		r.env.tracer.Span(p.Name, "sim", "resource-wait", t0, r.env.now)
	}
	// Capacity was transferred to us by Release.
}

// Release returns one unit of capacity, waking the first waiter (at the
// current virtual time) if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %s", r.Name))
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		// Capacity passes directly to the waiter; inUse stays constant.
		r.env.schedule(r.env.now, w)
		if r.env.tracer.Detail() {
			r.env.tracer.Counter(r.Name, "queue", r.env.now, float64(len(r.waiters)))
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
	queue []any
	recvq []*Proc
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Env, name string) *Mailbox {
	return &Mailbox{Name: name, env: e}
}

// Send enqueues a value, waking the oldest waiting receiver if any.
// It never blocks, so it may be called from any process.
func (m *Mailbox) Send(v any) {
	if len(m.recvq) > 0 {
		w := m.recvq[0]
		m.recvq = m.recvq[1:]
		w.handoff = v
		m.env.schedule(m.env.now, w)
		return
	}
	m.queue = append(m.queue, v)
	reg := m.env.tracer.Counters()
	if reg != nil {
		// One global gauge: its high-water mark is the deepest any mailbox
		// ever got (per-mailbox gauges would explode at 12k-rank scale).
		reg.SetGauge("sim.mailbox.depth", float64(len(m.queue)))
	}
	if m.env.tracer.Detail() {
		m.env.tracer.Counter(m.Name, "depth", m.env.now, float64(len(m.queue)))
	}
}

// Recv dequeues the oldest value, blocking until one is available.
func (m *Mailbox) Recv(p *Proc) any {
	if len(m.queue) > 0 {
		v := m.queue[0]
		m.queue = m.queue[1:]
		return v
	}
	m.recvq = append(m.recvq, p)
	m.env.blocked[p] = "mailbox:" + m.Name
	t0 := m.env.now
	p.park()
	delete(m.env.blocked, p)
	if m.env.tracer.Detail() {
		m.env.tracer.Span(p.Name, "sim", "mailbox-wait", t0, m.env.now)
	}
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
	waiters []*Proc
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
		for _, w := range b.waiters {
			b.env.schedule(b.env.now, w)
		}
		b.waiters = b.waiters[:0]
		b.arrived = 0
		return
	}
	b.waiters = append(b.waiters, p)
	b.env.blocked[p] = "barrier:" + b.Name
	t0 := b.env.now
	p.park()
	delete(b.env.blocked, p)
	if b.env.tracer.Detail() {
		b.env.tracer.Span(p.Name, "sim", "barrier-wait", t0, b.env.now)
	}
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
		for _, w := range b.waiters {
			b.env.schedule(b.env.now, w)
		}
		b.waiters = b.waiters[:0]
		b.arrived = 0
	}
}

// Parties returns the current number of participants.
func (b *Barrier) Parties() int { return b.n }
