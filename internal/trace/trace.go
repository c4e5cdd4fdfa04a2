// Package trace is the structured observability layer of the repository:
// a low-overhead event/span emission API with pluggable sinks, clocked by
// either the discrete-event virtual clock (simulated schedules) or wall
// time (real executions).
//
// Every instrumented subsystem — the event engine (internal/sim), the
// message-passing runtime (internal/mpi), the parallel file system model
// (internal/parfs) and the EnKF schedules themselves (internal/schedule,
// internal/core, internal/baseline) — emits onto a shared Tracer:
//
//   - spans ('X' in the Chrome trace-event vocabulary): phase activity of a
//     processor, an OST servicing a request, a rank blocked in a receive;
//   - instants ('i'): stage-data-ready notifications, helper-thread
//     handoffs, backbone throttle events, process park/wake;
//   - counter samples ('C'): resource queue depths, mailbox lengths.
//
// Events carry a Track (one per simulated processor, OST, or MPI rank), so
// a trace loads in Perfetto/chrome://tracing as one row per processor —
// the event structure behind the paper's Figures 9 and 11 made visible.
// The same events feed trace-derived analysis (see analyze.go): the
// overlap percentage and phase breakdowns are folded from the trace — and
// checked against the simulator's Result — and causality/limit invariants
// are asserted.
//
// A nil *Tracer is the disabled fast path: every method is a nil-receiver
// no-op, and hot call sites additionally guard with Enabled() so disabled
// runs pay only a pointer comparison.
package trace

import (
	"sync"
	"time"
)

// Arg is one key/value annotation on an event. Values are float64 so
// events stay allocation-light and serialize directly to Chrome JSON.
type Arg struct {
	Key string
	Val float64
}

// Event phases, following the Chrome trace-event vocabulary.
const (
	PhaseSpan    = 'X' // complete event: Ts..Ts+Dur
	PhaseInstant = 'i' // point event at Ts
	PhaseCounter = 'C' // counter sample at Ts
)

// Event is one emitted trace record. Times are in seconds (virtual or
// wall, depending on the tracer's clock).
type Event struct {
	Track string // one track per processor / OST / rank
	Cat   string // category: "phase", "stage", "ost", "sim", "mpi", ...
	Name  string
	Ph    byte    // PhaseSpan, PhaseInstant or PhaseCounter
	Ts    float64 // start time, seconds
	Dur   float64 // duration, seconds (spans only)
	Args  []Arg
}

// Sink receives emitted events. Implementations must be safe for
// sequential use under the tracer's lock; the tracer serializes Emit
// calls.
type Sink interface {
	Emit(Event)
}

// Tracer fans events out to its sinks and optionally accumulates hot-path
// counters in a Registry. All methods are safe on a nil receiver (no-op)
// and safe for concurrent use (real executions emit from many goroutines).
type Tracer struct {
	mu       sync.Mutex
	clock    func() float64
	sinks    []Sink
	detail   bool
	counters *Registry
}

// New creates a tracer over the given clock and sinks. A nil clock
// defaults to wall time since the call to New — the right choice for real
// executions; simulated schedules pass explicit virtual timestamps and
// never consult the clock.
func New(clock func() float64, sinks ...Sink) *Tracer {
	if clock == nil {
		clock = WallClock()
	}
	return &Tracer{clock: clock, sinks: sinks}
}

// WallClock returns a clock measuring seconds since the call.
func WallClock() func() float64 {
	t0 := time.Now()
	return func() float64 { return time.Since(t0).Seconds() }
}

// SetDetail toggles high-volume instrumentation (process park/wake,
// per-mailbox queue depths). Off by default: detail events dominate event
// counts at the 12,000-processor scale.
func (t *Tracer) SetDetail(on bool) {
	if t != nil {
		t.detail = on
	}
}

// SetCounters attaches a counter registry. Counters accumulate even when
// the tracer has no span sinks, so `-counters` works without `-trace`.
func (t *Tracer) SetCounters(r *Registry) {
	if t != nil {
		t.counters = r
	}
}

// Counters returns the attached registry (nil-safe; may return nil).
func (t *Tracer) Counters() *Registry {
	if t == nil {
		return nil
	}
	return t.counters
}

// Enabled reports whether span/instant emission reaches any sink. Hot
// call sites guard on this before building Arg lists so the disabled path
// allocates nothing.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// Detail reports whether high-volume detail events should be emitted.
func (t *Tracer) Detail() bool { return t != nil && t.detail && len(t.sinks) > 0 }

// Now returns the tracer's clock reading (0 on a nil tracer).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	for _, s := range t.sinks {
		s.Emit(ev)
	}
	t.mu.Unlock()
}

// Span emits a complete event covering [start, end].
func (t *Tracer) Span(track, cat, name string, start, end float64, args ...Arg) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{Track: track, Cat: cat, Name: name, Ph: PhaseSpan, Ts: start, Dur: end - start, Args: args})
}

// Instant emits a point event at ts.
func (t *Tracer) Instant(track, cat, name string, ts float64, args ...Arg) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{Track: track, Cat: cat, Name: name, Ph: PhaseInstant, Ts: ts, Args: args})
}

// Counter emits a counter sample: the named series on the given track has
// value val at ts.
func (t *Tracer) Counter(track, name string, ts, val float64) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{Track: track, Cat: "counter", Name: name, Ph: PhaseCounter, Ts: ts, Args: []Arg{{Key: "value", Val: val}}})
}

// Buffer is a Sink that retains every event in memory, for export
// (WriteChrome) and trace-derived verification (analyze.go).
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit appends the event.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	b.events = append(b.events, ev)
	b.mu.Unlock()
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a copy of the buffered events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}
