// Package mpi is a message-passing runtime built on goroutines and
// channels-free mailbox matching, standing in for the MPI library the paper
// runs on (MPICH 3.1 over TH Express-2). It provides what its callers use and
// nothing more: one world of ranks executing the same function, matched
// point-to-point Send/SendOwned/Recv with source and tag selection (including
// wildcards), and the collectives Bcast, Gather, Barrier and AllreduceSum.
// There are no sub-communicators and no receive deadlines: a receive returns
// with a message or, once any rank of the world failed, with that rank's
// error (abort poisoning), so a run cannot hang on a dead peer.
//
// The runtime is a real concurrent substrate, not a simulation: sends and
// receives block and interleave exactly as goroutine scheduling dictates, so
// the overlap behaviour of S-EnKF's helper thread is exercised for real.
// (Large-scale *timing* is the job of internal/sim; this package is about
// correct parallel execution.)
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"senkf/internal/trace"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches messages with any (non-internal) tag in Recv.
const AnyTag = -1

// Message is a received message. Meta carries small integer metadata
// (box coordinates, member indices, stage numbers); Data carries the
// payload.
type Message struct {
	Src  int
	Tag  int
	Meta []int
	Data []float64
}

type envelope struct {
	sentAt float64 // enqueue time on the world clock, stamped when observed
	Message
}

// MsgObserver receives one callback per delivered point-to-point message:
// sender and receiver ranks, the message tag, the on-wire byte size
// (8·(meta+data) words, as mpi.bytes counts it), the enqueue and delivery
// timestamps on the world clock (the tracer's clock when tracing, wall
// seconds since world creation otherwise), and the receiver's remaining
// inbox depth at match time. Callbacks run on receiving goroutines
// concurrently — implementations must be safe for concurrent use. The
// interface is declared here, structurally identical to the plan layer's
// MsgObserver, so one implementation (internal/wire's collector) serves
// both without this package importing the plan layer.
type MsgObserver interface {
	OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int)
}

// ErrAborted is returned by blocked receives when another rank of the
// world failed: the runtime poisons all pending operations so a single
// failure cannot deadlock the whole world (MPI_Abort semantics). The
// concrete error is usually a *RankFailedError naming the failed rank;
// errors.Is(err, ErrAborted) matches it.
var ErrAborted = errors.New("mpi: world aborted because another rank failed")

// RankFailedError poisons the operations of surviving ranks when a peer
// returned an error or panicked: instead of hanging in a collective the
// survivors fail fast with the identity and cause of the dead rank.
// It matches errors.Is(err, ErrAborted) for backward compatibility.
type RankFailedError struct {
	Rank  int   // rank that failed
	Cause error // what it failed with (nil for a bare abort)
}

func (e *RankFailedError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("mpi: rank %d failed; world aborted", e.Rank)
	}
	return fmt.Sprintf("mpi: rank %d failed (%v); world aborted", e.Rank, e.Cause)
}

func (e *RankFailedError) Unwrap() error { return e.Cause }

// FailedRank returns the rank that failed. The method (rather than
// the Rank field) is the contract a plan-layer observer duck-types
// against, so internal/monitor can name the dead rank's plan position
// without importing this package.
func (e *RankFailedError) FailedRank() int { return e.Rank }

// Is makes errors.Is(err, ErrAborted) keep working for callers written
// against the pre-cause abort error.
func (e *RankFailedError) Is(target error) bool { return target == ErrAborted }

// inbox is a rank's queue of undelivered envelopes, oldest first from head
// on. It reuses its backing array the way sim's fifo does: taking the oldest
// envelope advances head, and a full array at least half vacated slides down
// instead of growing. Every vacated slot is cleared, so a taken envelope's
// payload is not kept reachable.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	msgs  []envelope // msgs[:head] are vacated
	head  int
	cause error // non-nil once the world aborted
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(e envelope) {
	ib.mu.Lock()
	if ib.head > 0 && len(ib.msgs) == cap(ib.msgs) && 2*ib.head >= len(ib.msgs) {
		n := copy(ib.msgs, ib.msgs[ib.head:])
		clear(ib.msgs[n:])
		ib.msgs, ib.head = ib.msgs[:n], 0
	}
	ib.msgs = append(ib.msgs, e)
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// abort poisons the inbox with the given cause; the first cause wins.
func (ib *inbox) abort(cause error) {
	ib.mu.Lock()
	if ib.cause == nil {
		ib.cause = cause
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives or the world aborts. The second result is the inbox
// depth remaining after the match — the queue-depth reading the message
// observer reports.
func (ib *inbox) take(src, tag int) (envelope, int, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i := ib.head; i < len(ib.msgs); i++ {
			e := &ib.msgs[i]
			if src != AnySource && e.Src != src {
				continue
			}
			if tag != AnyTag && e.Tag != tag {
				continue
			}
			got := *e
			if i == ib.head {
				// The oldest: vacate its slot.
				*e = envelope{}
				if ib.head++; ib.head == len(ib.msgs) {
					ib.msgs, ib.head = ib.msgs[:0], 0
				}
			} else {
				// Behind the oldest: shift the tail down, which keeps the
				// order of the rest, and clear the slot that frees.
				last := len(ib.msgs) - 1
				copy(ib.msgs[i:], ib.msgs[i+1:])
				ib.msgs[last] = envelope{}
				ib.msgs = ib.msgs[:last]
			}
			return got, len(ib.msgs) - ib.head, nil
		}
		if ib.cause != nil {
			return envelope{}, 0, ib.cause
		}
		ib.cond.Wait()
	}
}

// msgBytes is a message's on-wire size: m meta ints and d data floats
// count as 8*(m+d) bytes.
func msgBytes(meta []int, data []float64) int64 {
	return 8 * int64(len(meta)+len(data))
}

// World is a set of ranks that can exchange messages.
type World struct {
	size    int
	inboxes []*inbox
	tracer  *trace.Tracer
	msgObs  MsgObserver
	epoch   time.Time // wall-clock origin when no tracer supplies a clock
}

// NewWorld creates a world with n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{size: n, inboxes: make([]*inbox, n), epoch: time.Now()}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	return w, nil
}

// SetTracer attaches a tracer (wall-clocked: this runtime executes for
// real). Must be called before Run; a nil tracer disables instrumentation.
func (w *World) SetTracer(tr *trace.Tracer) { w.tracer = tr }

// SetMsgObserver attaches the per-message observer. Must be called before
// Run; a nil observer (the default) disables per-message telemetry at the
// cost of one pointer check per delivery.
func (w *World) SetMsgObserver(o MsgObserver) { w.msgObs = o }

// now reads the world clock: the tracer's clock when tracing (so message
// timestamps line up with trace spans), wall seconds since world creation
// otherwise.
func (w *World) now() float64 {
	if w.tracer.Enabled() {
		return w.tracer.Now()
	}
	return time.Since(w.epoch).Seconds()
}

// abortAll poisons every inbox so blocked receives fail fast instead of
// deadlocking after a rank error. The cause names the failed rank; the
// first abort wins on each inbox.
func (w *World) abortAll(cause error) {
	for _, ib := range w.inboxes {
		ib.abort(cause)
	}
}

// Run executes fn on every rank concurrently and waits for all of them.
// Each rank receives its Comm, its endpoint in the world. The returned
// error joins the per-rank errors (nil when every rank succeeded).
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					w.abortAll(&RankFailedError{Rank: rank, Cause: fmt.Errorf("panic: %v", p)})
				}
			}()
			c := &Comm{world: w, rank: rank}
			errs[rank] = fn(c)
			if errs[rank] != nil {
				w.abortAll(&RankFailedError{Rank: rank, Cause: errs[rank]})
			}
		}(r)
	}
	wg.Wait()
	var nonNil []error
	for r, e := range errs {
		if e != nil {
			nonNil = append(nonNil, fmt.Errorf("rank %d: %w", r, e))
		}
	}
	return errors.Join(nonNil...)
}

// Comm is a rank's endpoint in its world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// track is the caller's trace track: one row per rank.
func (c *Comm) track() string { return fmt.Sprintf("rank%d", c.rank) }

// opName maps a tag to the trace span name of the operation blocking on it.
func opName(tag int) string {
	switch tag {
	case collBcast:
		return "bcast"
	case collGather:
		return "gather"
	case collBarrierUp, collBarrierDn:
		return "barrier"
	case collReduce:
		return "allreduce"
	}
	return "recv"
}

// Send delivers a message to rank dst. Meta and Data are copied, so the
// caller may immediately reuse its buffers. Tags must be non-negative.
func (c *Comm) Send(dst, tag int, meta []int, data []float64) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	c.send(dst, tag, meta, data)
	return nil
}

// SendOwned is Send with meta and data handed over instead of copied: the
// receiver's Message.Meta is meta itself and its Message.Data is data
// itself, so the caller must not read or write either after the call. It is
// for a message built for exactly one receiver and dropped by its sender; a
// buffer the sender keeps or reuses needs Send. Validation, the counters,
// tracing and the message observer see the same message either way.
func (c *Comm) SendOwned(dst, tag int, meta []int, data []float64) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	c.deliver(dst, tag, meta, data)
	return nil
}

// checkSend validates a user-level send's destination and tag.
func (c *Comm) checkSend(dst, tag int) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to rank %d out of range [0,%d)", dst, c.world.size)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	return nil
}

// send delivers copies of meta and data, leaving the caller its buffers.
func (c *Comm) send(dst, tag int, meta []int, data []float64) {
	c.deliver(dst, tag, append([]int(nil), meta...), append([]float64(nil), data...))
}

// deliver enqueues the message at dst and counts it in the registry (the
// transport's one record of what it sent: mpi.msgs, mpi.bytes). The envelope
// keeps meta and data themselves: both belong to the receiver from here on.
func (c *Comm) deliver(dst, tag int, meta []int, data []float64) {
	e := envelope{Message: Message{Src: c.rank, Tag: tag, Meta: meta, Data: data}}
	if c.world.msgObs != nil {
		e.sentAt = c.world.now()
	}
	c.world.inboxes[dst].put(e)
	bytes := msgBytes(meta, data)
	tr := c.world.tracer
	if reg := tr.Counters(); reg != nil {
		reg.Inc("mpi.msgs")
		reg.Add("mpi.bytes", float64(bytes))
	}
	if tr.Detail() {
		tr.Instant(c.track(), "mpi", "send", tr.Now(),
			trace.Arg{Key: "dst", Val: float64(dst)},
			trace.Arg{Key: "bytes", Val: float64(bytes)})
	}
}

// take blocks on the caller's inbox for a message from rank src with the
// given tag, emitting the blocking span and the delivery to the message
// observer. All receive paths — point-to-point and collectives — come
// through here.
func (c *Comm) take(src, tag int) (Message, error) {
	tr := c.world.tracer
	var t0 float64
	if tr.Enabled() {
		t0 = tr.Now()
	}
	e, depth, err := c.world.inboxes[c.rank].take(src, tag)
	if err != nil {
		return Message{}, err
	}
	m := e.Message
	if tr.Enabled() {
		tr.Span(c.track(), "mpi", opName(tag), t0, tr.Now(),
			trace.Arg{Key: "bytes", Val: float64(msgBytes(m.Meta, m.Data))})
	}
	if obs := c.world.msgObs; obs != nil {
		obs.OnMessage(m.Src, c.rank, m.Tag, msgBytes(m.Meta, m.Data), e.sentAt, c.world.now(), depth)
	}
	return m, nil
}

// Recv blocks until a message matching (src, tag) arrives or the world
// aborts. src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) (Message, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return Message{}, fmt.Errorf("mpi: recv from rank %d out of range [0,%d)", src, c.world.size)
	}
	if tag != AnyTag && tag < 0 {
		return Message{}, fmt.Errorf("mpi: negative tag %d", tag)
	}
	return c.take(src, tag)
}

// Collectives use a private tag space carved out of the negative integers so
// concurrent user traffic (tags ≥ 0) cannot interfere. Like MPI, all ranks
// must call collectives in the same order, and a collective returns only
// when every rank calls it (or the world aborts); messages
// between a fixed (sender, receiver, tag) pair are delivered FIFO, which
// makes fixed per-kind tags safe for the tree and star patterns below.
const (
	collBcast     = -2
	collGather    = -3
	collBarrierUp = -5
	collBarrierDn = -6
	collReduce    = -7
)

// Bcast broadcasts data from root to every rank; every rank returns its own
// copy of the broadcast slice. Implemented as a binary tree rooted at root,
// matching the log(p) shape of the cost models in §4.3.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	n := c.world.size
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	vr := (c.rank - root + n) % n // rotate so the root is virtual rank 0
	if vr != 0 {
		parentVirtual := (vr - 1) / 2
		parent := (parentVirtual + root) % n
		m, err := c.take(parent, collBcast)
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	for _, childVirtual := range []int{2*vr + 1, 2*vr + 2} {
		if childVirtual < n {
			c.send((childVirtual+root)%n, collBcast, nil, data)
		}
	}
	return data, nil
}

// Gather collects each rank's data at root. Root receives a slice indexed
// by rank; other ranks receive nil.
func (c *Comm) Gather(root int, data []float64) ([][]float64, error) {
	if root < 0 || root >= c.world.size {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	if c.rank != root {
		c.send(root, collGather, nil, data)
		return nil, nil
	}
	out := make([][]float64, c.world.size)
	out[root] = append([]float64(nil), data...)
	for i := range out {
		if i == root {
			continue
		}
		m, err := c.take(i, collGather)
		if err != nil {
			return nil, err
		}
		out[i] = m.Data
	}
	return out, nil
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	if c.rank != 0 {
		c.send(0, collBarrierUp, nil, nil)
		_, err := c.take(0, collBarrierDn)
		return err
	}
	for i := 1; i < c.world.size; i++ {
		if _, err := c.take(i, collBarrierUp); err != nil {
			return err
		}
	}
	for i := 1; i < c.world.size; i++ {
		c.send(i, collBarrierDn, nil, nil)
	}
	return nil
}

// AllreduceSum sums element-wise across ranks; every rank returns the total.
// The input slices must share a length.
func (c *Comm) AllreduceSum(data []float64) ([]float64, error) {
	if c.rank != 0 {
		c.send(0, collReduce, nil, data)
	} else {
		sum := append([]float64(nil), data...)
		for i := 1; i < c.world.size; i++ {
			m, err := c.take(i, collReduce)
			if err != nil {
				return nil, err
			}
			if len(m.Data) != len(sum) {
				return nil, fmt.Errorf("mpi: allreduce length mismatch: rank %d sent %d, want %d", i, len(m.Data), len(sum))
			}
			for j, v := range m.Data {
				sum[j] += v
			}
		}
		data = sum
	}
	return c.Bcast(0, data)
}
