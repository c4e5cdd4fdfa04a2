// Package mpi is a message-passing runtime built on goroutines and
// channels-free mailbox matching, standing in for the MPI library the paper
// runs on (MPICH 3.1 over TH Express-2). It provides exactly the semantics
// the EnKF implementations need: a world of ranks executing the same
// function, matched point-to-point Send/Recv with source and tag selection
// (including wildcards), the collectives used by L-EnKF (Bcast, Scatter,
// Gather, Barrier, Allreduce), and communicator splitting.
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
	"sort"
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
	context  int
	worldSrc int     // sender's world rank (Message.Src is communicator-scoped)
	sentAt   float64 // enqueue time on the world clock, stamped when observed
	Message
}

// MsgObserver receives one callback per delivered point-to-point message:
// sender and receiver world ranks, the message tag, the on-wire byte size
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

// ErrDeadline is the sentinel matched by deadline-exceeded receive errors;
// the concrete error is a *DeadlineError.
var ErrDeadline = errors.New("mpi: deadline exceeded")

// RankFailedError poisons the operations of surviving ranks when a peer
// returned an error or panicked: instead of hanging in a collective the
// survivors fail fast with the identity and cause of the dead rank.
// It matches errors.Is(err, ErrAborted) for backward compatibility.
type RankFailedError struct {
	Rank  int   // world rank that failed
	Cause error // what it failed with (nil for a bare abort)
}

func (e *RankFailedError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("mpi: rank %d failed; world aborted", e.Rank)
	}
	return fmt.Sprintf("mpi: rank %d failed (%v); world aborted", e.Rank, e.Cause)
}

func (e *RankFailedError) Unwrap() error { return e.Cause }

// FailedRank returns the world rank that failed. The method (rather than
// the Rank field) is the contract a plan-layer observer duck-types
// against, so internal/monitor can name the dead rank's plan position
// without importing this package.
func (e *RankFailedError) FailedRank() int { return e.Rank }

// Is makes errors.Is(err, ErrAborted) keep working for callers written
// against the pre-cause abort error.
func (e *RankFailedError) Is(target error) bool { return target == ErrAborted }

// DeadlineError reports a receive that waited past its deadline — the peer
// is silent (dead without having been detected, or stalled).
type DeadlineError struct {
	Rank    int // receiver's world rank
	Src     int // communicator rank waited on (AnySource allowed)
	Tag     int
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("mpi: rank %d recv(src=%d, tag=%d) exceeded %v deadline — peer silent", e.Rank, e.Src, e.Tag, e.Timeout)
}

func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// errTakeExpired is the internal marker the inbox returns on deadline; the
// Comm layer wraps it with rank/source detail.
var errTakeExpired = errors.New("mpi: take deadline expired")

type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	msgs  []envelope
	cause error // non-nil once the world aborted
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(e envelope) {
	ib.mu.Lock()
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

// aborted returns the poison cause, if any.
func (ib *inbox) aborted() error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.cause
}

// take removes and returns the first message matching (context, src, tag),
// blocking until one arrives, the world aborts, or the timeout (when
// positive) expires. The second result is the inbox depth remaining after
// the match — the queue-depth reading the message observer reports.
func (ib *inbox) take(context, src, tag int, timeout time.Duration) (envelope, int, error) {
	var expired bool
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			ib.mu.Lock()
			expired = true
			ib.mu.Unlock()
			ib.cond.Broadcast()
		})
		defer t.Stop()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i, e := range ib.msgs {
			if e.context != context {
				continue
			}
			if src != AnySource && e.Src != src {
				continue
			}
			if tag != AnyTag && e.Tag != tag {
				continue
			}
			// Shift the tail down and clear the vacated slot: the backing
			// array must not keep the last envelope's payload reachable.
			last := len(ib.msgs) - 1
			copy(ib.msgs[i:], ib.msgs[i+1:])
			ib.msgs[last] = envelope{}
			ib.msgs = ib.msgs[:last]
			return e, last, nil
		}
		if ib.cause != nil {
			return envelope{}, 0, ib.cause
		}
		if expired {
			return envelope{}, 0, errTakeExpired
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

	mu          sync.Mutex
	nextContext int
}

// NewWorld creates a world with n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{size: n, inboxes: make([]*inbox, n), nextContext: 1, epoch: time.Now()}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

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

// allocContext hands out a fresh context id. Contexts separate the message
// namespaces of communicators; Split relies on every member calling it in
// the same collective order, as MPI does.
func (w *World) allocContext() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.nextContext
	w.nextContext++
	return c
}

// abortAll poisons every inbox so blocked receives fail fast instead of
// deadlocking after a rank error. The cause names the failed rank; the
// first abort wins on each inbox.
func (w *World) abortAll(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	for _, ib := range w.inboxes {
		ib.abort(cause)
	}
}

// Run executes fn on every rank concurrently and waits for all of them.
// Each rank receives a Comm bound to the world communicator. The returned
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
			c := &Comm{world: w, context: 0, rank: rank, group: identityGroup(w.size)}
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

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// Comm is a communicator: a rank's endpoint within a group of ranks
// sharing a message context.
type Comm struct {
	world   *World
	context int
	rank    int   // rank within this communicator
	group   []int // communicator rank -> world rank
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.group) }

// track is the caller's trace track: one row per world rank.
func (c *Comm) track() string { return fmt.Sprintf("rank%d", c.group[c.rank]) }

// opName maps a tag to the trace span name of the operation blocking on it.
func opName(tag int) string {
	switch tag {
	case collBcast:
		return "bcast"
	case collGather:
		return "gather"
	case collScatter:
		return "scatter"
	case collBarrierUp, collBarrierDn:
		return "barrier"
	case collReduce:
		return "allreduce"
	}
	return "recv"
}

// Send delivers a message to rank dst of this communicator. Meta and Data
// are copied, so the caller may immediately reuse its buffers. Tags must be
// non-negative.
func (c *Comm) Send(dst, tag int, meta []int, data []float64) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	c.send(dst, tag, meta, data)
	return nil
}

// SendOwned is Send with the payload handed over instead of copied: the
// receiver's Message.Data is data itself, so the caller must not read or
// write data after the call. It is for a payload built for exactly one
// receiver and dropped by its sender; a buffer the sender keeps or reuses
// needs Send. Meta is still copied. Validation, the counters, tracing and the
// message observer see the same message either way.
func (c *Comm) SendOwned(dst, tag int, meta []int, data []float64) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	c.deliver(dst, tag, append([]int(nil), meta...), data)
	return nil
}

// checkSend validates a user-level send's destination and tag.
func (c *Comm) checkSend(dst, tag int) error {
	if dst < 0 || dst >= len(c.group) {
		return fmt.Errorf("mpi: send to rank %d out of range [0,%d)", dst, len(c.group))
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	return nil
}

// SendDeadline is Send with failure detection: sends in this runtime never
// block (mailboxes are unbounded), so the deadline's job is to refuse to
// enqueue onto a world that already aborted — returning the failed rank's
// *RankFailedError instead of silently feeding a dead peer. The timeout
// parameter is accepted for interface symmetry with RecvDeadline.
func (c *Comm) SendDeadline(dst, tag int, meta []int, data []float64, timeout time.Duration) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	if cause := c.world.inboxes[c.group[dst]].aborted(); cause != nil {
		return cause
	}
	c.send(dst, tag, meta, data)
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
	e := envelope{
		context:  c.context,
		worldSrc: c.group[c.rank],
		Message:  Message{Src: c.rank, Tag: tag, Meta: meta, Data: data},
	}
	if c.world.msgObs != nil {
		e.sentAt = c.world.now()
	}
	c.world.inboxes[c.group[dst]].put(e)
	bytes := msgBytes(meta, data)
	tr := c.world.tracer
	if reg := tr.Counters(); reg != nil {
		reg.Inc("mpi.msgs")
		reg.Add("mpi.bytes", float64(bytes))
	}
	if tr.Detail() {
		tr.Instant(c.track(), "mpi", "send", tr.Now(),
			trace.Arg{Key: "dst", Val: float64(c.group[dst])},
			trace.Arg{Key: "bytes", Val: float64(bytes)})
	}
}

// take blocks on the caller's inbox for a message from communicator rank
// src with the given tag, emitting the blocking span and the delivery to
// the message observer.
// All receive paths — point-to-point and collectives — come through here.
func (c *Comm) take(src, tag int) (Message, error) {
	return c.takeTimeout(src, tag, 0)
}

func (c *Comm) takeTimeout(src, tag int, timeout time.Duration) (Message, error) {
	tr := c.world.tracer
	var t0 float64
	if tr.Enabled() {
		t0 = tr.Now()
	}
	e, depth, err := c.world.inboxes[c.group[c.rank]].take(c.context, src, tag, timeout)
	if err != nil {
		if err == errTakeExpired {
			err = &DeadlineError{Rank: c.group[c.rank], Src: src, Tag: tag, Timeout: timeout}
		}
		return e.Message, err
	}
	m := e.Message
	if tr.Enabled() {
		tr.Span(c.track(), "mpi", opName(tag), t0, tr.Now(),
			trace.Arg{Key: "bytes", Val: float64(msgBytes(m.Meta, m.Data))})
	}
	if obs := c.world.msgObs; obs != nil {
		obs.OnMessage(e.worldSrc, c.group[c.rank], m.Tag,
			msgBytes(m.Meta, m.Data), e.sentAt, c.world.now(), depth)
	}
	return m, nil
}

// Recv blocks until a message matching (src, tag) arrives. src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) (Message, error) {
	return c.RecvDeadline(src, tag, 0)
}

// RecvDeadline is Recv with a deadline: when timeout is positive and no
// matching message arrives in time, it fails with a *DeadlineError
// (errors.Is(err, ErrDeadline)) instead of blocking forever on a silent
// peer. A zero timeout waits indefinitely.
func (c *Comm) RecvDeadline(src, tag int, timeout time.Duration) (Message, error) {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		return Message{}, fmt.Errorf("mpi: recv from rank %d out of range [0,%d)", src, len(c.group))
	}
	if tag != AnyTag && tag < 0 {
		return Message{}, fmt.Errorf("mpi: negative tag %d", tag)
	}
	return c.takeTimeout(src, tag, timeout)
}

// Collectives use a private tag space carved out of the negative integers so
// concurrent user traffic (tags ≥ 0) cannot interfere. Like MPI, all ranks
// of a communicator must call collectives in the same order; messages
// between a fixed (sender, receiver, tag) pair are delivered FIFO, which
// makes fixed per-kind tags safe for the tree and star patterns below.
const (
	collBcast     = -2
	collGather    = -3
	collScatter   = -4
	collBarrierUp = -5
	collBarrierDn = -6
	collReduce    = -7
)

// Bcast broadcasts data from root to every rank; every rank returns its own
// copy of the broadcast slice. Implemented as a binary tree rooted at root,
// matching the log(p) shape of the cost models in §4.3.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= len(c.group) {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	n := len(c.group)
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
	if root < 0 || root >= len(c.group) {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	if c.rank != root {
		c.send(root, collGather, nil, data)
		return nil, nil
	}
	out := make([][]float64, len(c.group))
	out[root] = append([]float64(nil), data...)
	for i := 0; i < len(c.group); i++ {
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

// Scatter distributes parts[i] from root to rank i; every rank returns its
// part. Only root may pass a non-nil parts slice, which must have exactly
// one entry per rank.
func (c *Comm) Scatter(root int, parts [][]float64) ([]float64, error) {
	if root < 0 || root >= len(c.group) {
		return nil, fmt.Errorf("mpi: scatter root %d out of range", root)
	}
	if c.rank == root {
		if len(parts) != len(c.group) {
			return nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", len(c.group), len(parts))
		}
		for i, p := range parts {
			if i == root {
				continue
			}
			c.send(i, collScatter, nil, p)
		}
		return append([]float64(nil), parts[root]...), nil
	}
	m, err := c.take(root, collScatter)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() error {
	if c.rank != 0 {
		c.send(0, collBarrierUp, nil, nil)
		_, err := c.take(0, collBarrierDn)
		return err
	}
	for i := 1; i < len(c.group); i++ {
		if _, err := c.take(i, collBarrierUp); err != nil {
			return err
		}
	}
	for i := 1; i < len(c.group); i++ {
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
		for i := 1; i < len(c.group); i++ {
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

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, old rank), and returns the caller's new
// communicator — MPI_Comm_split semantics. A negative color returns nil
// (the rank opts out) but the rank must still call Split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Gather (color, key) pairs at rank 0 of this communicator.
	pair := []float64{float64(color), float64(key)}
	all, err := c.Gather(0, pair)
	if err != nil {
		return nil, err
	}
	// Rank 0 assigns one fresh context per distinct non-negative color and
	// broadcasts the (context, color sorted membership) table.
	var table []float64 // triples: worldRankIdx, color, context
	if c.rank == 0 {
		contexts := map[int]int{}
		colors := make([]int, 0, len(all))
		for _, p := range all {
			col := int(p[0])
			if col >= 0 {
				if _, ok := contexts[col]; !ok {
					colors = append(colors, col)
				}
				contexts[col] = 0
			}
		}
		sort.Ints(colors)
		for _, col := range colors {
			contexts[col] = c.world.allocContext()
		}
		for r, p := range all {
			col := int(p[0])
			ctx := -1
			if col >= 0 {
				ctx = contexts[col]
			}
			table = append(table, float64(r), p[0], p[1], float64(ctx))
		}
	}
	table, err = c.Bcast(0, table)
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	// Build the member list of my color ordered by (key, old rank).
	type member struct{ oldRank, key int }
	var members []member
	myContext := -1
	for i := 0; i+3 < len(table); i += 4 {
		r, col, k, ctx := int(table[i]), int(table[i+1]), int(table[i+2]), int(table[i+3])
		if col == color {
			members = append(members, member{oldRank: r, key: k})
			myContext = ctx
		}
	}
	sort.Slice(members, func(a, b int) bool {
		if members[a].key != members[b].key {
			return members[a].key < members[b].key
		}
		return members[a].oldRank < members[b].oldRank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			newRank = i
		}
	}
	if newRank < 0 || myContext < 0 {
		return nil, fmt.Errorf("mpi: split bookkeeping failed for rank %d color %d", c.rank, color)
	}
	return &Comm{world: c.world, context: myContext, rank: newRank, group: group}, nil
}
