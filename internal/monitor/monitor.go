// Package monitor is the live observability layer: it consumes the trace
// event stream of a running plan execution *online* (as the secondary
// side of a trace.Tee, so Chrome-trace emission is untouched) and
// maintains, per run:
//
//   - live plan conformance — every phase span and "ready" release
//     instant is streamed into the run's plan.Checker, the same check
//     plan.DiffDAG runs post-hoc: missing/extra spans, out-of-order
//     release edges, and per-rank stage progress are visible while the
//     run executes. The checker decides what conforms; the monitor words
//     the verdicts and blames plan edges;
//   - budget watchdogs — per-stage expected durations from the Eq. 7–10
//     cost-model terms (the model/t_* counters the simulated substrate
//     already emits), with a straggler/stall verdict when a stage
//     exceeds budget × tolerance. Real runs, which have no model
//     prediction, fall back to peer-median budgets per (phase, stage);
//   - the monitor's own counts — runs, divergences, deadlocks, watchdog
//     trips, incidents, flight dumps: what it decides, and nothing else —
//     in the run's trace.Registry (Options.Registry), plus a JSON
//     conformance summary (Status), which the run's one server (runlog's
//     -profile) renders at /metrics and /status. Every other count has its
//     writer at the layer that makes the fact: phase latencies are the
//     trace's spans, file-system traffic the parfs counters, injected
//     faults the faults.* counters, wire traffic the wire collector, the Go
//     runtime the sampler's runtime/* gauges;
//   - a flight recorder — a fixed-size ring of the most recent trace
//     events, dumped automatically (file + attached to the error) on
//     deadlock, watchdog trip, rank death, or plan divergence;
//   - wire conformance — the traffic the wire collector (Options.Wire)
//     counted, judged at EndRun against the plan's expected edge matrix.
//
// The package is substrate-free by construction: it depends on plan,
// trace, wire and metrics (naming), and duck-types the substrate
// errors (sim.DeadlockError's BlockedOn, mpi.RankFailedError's
// FailedRank) instead of importing sim or mpi. CI enforces the layering.
package monitor

import (
	"log/slog"
	"strings"
	"sync"

	"senkf/internal/metrics"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// Options configures a Monitor.
type Options struct {
	// DumpPath, when set, is the file the flight recorder writes (Chrome
	// trace-event JSON, replayable through trace.ReadChrome and
	// plan.StructuralDAG) on the first anomaly.
	DumpPath string
	// Registry is the registry the monitor counts into — the run's own, so
	// one snapshot carries the monitor/* series next to the run's counters.
	// Nil makes a private one.
	Registry *trace.Registry
	// RunID, when set, labels Status with the invocation's run-ledger
	// identity.
	RunID string
	// Logger, when set, receives structured log lines for run boundaries,
	// incidents, watchdog verdicts and divergences.
	Logger *slog.Logger
	// Wire, when set, is the run's wire collector: EndRun judges the
	// traffic it counted against the plan's expected edge matrix, and
	// /status reports it live (wire.go).
	Wire *wire.Collector
}

const (
	// tolerance is the watchdog multiplier: a phase tripping exceeds
	// budget × tolerance.
	tolerance = 3.0
	// flightSize is the flight-recorder ring capacity in events.
	flightSize = 512
)

// Monitor consumes trace events (as a trace.Sink) and observes run
// boundaries (as a plan.RunObserver). All methods are safe for concurrent
// use: events arrive from the tee's drain goroutine while a /status
// request reads state.
type Monitor struct {
	opts Options
	reg  *trace.Registry

	mu  sync.Mutex
	tee *trace.Tee

	// Per-run state, reset by BeginRun.
	cp       *plan.Compiled
	check    plan.Checker    // nil before the first BeginRun
	edges    plan.EdgeMatrix // the plan's expected wire edges
	rankName map[int]string
	readyTs  map[string]map[int]float64
	finished bool

	// Watchdog state.
	budgets  map[string]float64 // phase name -> expected seconds per stage
	peers    map[peerKey][]float64
	tripped  map[tripKey]bool
	verdicts []Verdict
	injected map[string]float64 // announced straggler proc -> factor

	// Wire conformance (wire.go): the collector's baseline.
	wire wireState

	// Conformance bookkeeping.
	events      int64
	spans       int64
	divergences []string
	divCount    int
	dead        map[string]bool

	// Incidents + flight recorder.
	incidents []Incident
	ring      *ring
	dumped    bool
	dumpPath  string
	lastDump  []trace.Event

	// Runtime sampler state + watchdogs (runtime.go).
	runtime runtimeState
}

// New returns a monitor counting into opts.Registry (a private registry
// when nil).
func New(opts Options) *Monitor {
	reg := opts.Registry
	if reg == nil {
		reg = trace.NewRegistry()
	}
	return &Monitor{
		opts:     opts,
		reg:      reg,
		budgets:  map[string]float64{},
		peers:    map[peerKey][]float64{},
		tripped:  map[tripKey]bool{},
		injected: map[string]float64{},
		dead:     map[string]bool{},
		readyTs:  map[string]map[int]float64{},
		ring:     newRing(flightSize),
		runtime:  runtimeState{ring: newRing(runtimeRingSamples)},
		wire:     wireState{outaged: map[int]bool{}},
	}
}

// Registry returns the registry the monitor counts into.
func (m *Monitor) Registry() *trace.Registry { return m.reg }

// Tee wraps the given primary sink (nil for monitor-only tracing) in a
// fan-out tee whose secondary is this monitor, remembers the tee so
// EndRun can drain it, and returns it for use as a tracer sink.
func (m *Monitor) Tee(primary trace.Sink) trace.Sink {
	t := trace.NewTee(primary, m)
	m.mu.Lock()
	m.tee = t
	m.mu.Unlock()
	return t
}

// Close stops the tee's drain goroutine (no-op without one).
func (m *Monitor) Close() {
	m.mu.Lock()
	t := m.tee
	m.mu.Unlock()
	if t != nil {
		t.Close()
	}
}

func (m *Monitor) setBudgetLocked(phase string, v float64) {
	if v <= 0 {
		return
	}
	m.budgets[phase] = v
	// A stage's data cannot be awaited longer than it takes to produce
	// and ship it: the wait budget is read + comm.
	if r, ok := m.budgets["read"]; ok {
		if c, ok := m.budgets["comm"]; ok {
			m.budgets["wait"] = r + c
		}
	}
}

// BeginRun resets per-run state and takes the run's contract from the
// compiled plan: a plan.Checker for its structure, and its expected wire
// edges, which the wire judgement and edge blame read.
func (m *Monitor) BeginRun(c *plan.Compiled) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cp = c
	m.check = plan.NewChecker(c)
	m.edges = plan.ExpectedEdges(c)
	m.rankName = map[int]string{}
	m.readyTs = map[string]map[int]float64{}
	m.finished = false
	m.budgets = map[string]float64{}
	m.peers = map[peerKey][]float64{}
	m.tripped = map[tripKey]bool{}
	m.injected = map[string]float64{}
	m.dead = map[string]bool{}
	m.divergences = nil
	m.divCount = 0
	m.spans = 0
	m.beginWireLocked()
	for q := range c.Compute {
		m.rankName[c.Compute[q].Rank] = c.Compute[q].Name
	}
	for q := range c.IO {
		m.rankName[c.IO[q].Rank] = c.IO[q].Name
	}
	m.reg.Inc("monitor/runs")
	if m.opts.Logger != nil {
		m.opts.Logger.Info("monitor: run begin",
			"algorithm", string(c.Spec.Algorithm),
			"world_size", c.WorldSize(), "stages", c.Spec.L)
	}
}

// EndRun drains the tee (so the monitor's view is complete), finalizes
// conformance, judges the run's wire traffic, and — on error — classifies
// the failure, blames the plan edges involved, triggers the flight
// recorder, and wraps the error with the context. A nil error is always
// returned as nil.
func (m *Monitor) EndRun(err error) error {
	m.mu.Lock()
	t := m.tee
	m.mu.Unlock()
	if t != nil {
		t.Flush()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = true
	m.judgeWireLocked(err == nil)
	if err == nil {
		// Healthy completion: every live track must have run its full
		// expected chain. Tracks whose rank death was announced are
		// exempt — truncation is their expected structure.
		for _, d := range m.check.Close(m.dead) {
			m.divergeLocked(d)
		}
		if m.opts.Logger != nil {
			m.opts.Logger.Info("monitor: run end",
				"events", m.events, "spans", m.spans,
				"verdicts", len(m.verdicts), "divergences", m.divCount)
		}
		return nil
	}

	if m.opts.Logger != nil {
		m.opts.Logger.Error("monitor: run failed", "err", err.Error())
	}
	edges := m.classifyErrorLocked(err)
	m.dumpLocked()
	return &RunError{
		Err:        err,
		Edges:      edges,
		DumpPath:   m.dumpPath,
		DumpEvents: len(m.lastDump),
	}
}

// Emit consumes one trace event (trace.Sink). Called from the tee's drain
// goroutine — or directly, when the monitor is used as a plain sink.
func (m *Monitor) Emit(ev trace.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events++
	if ev.Track == trace.RuntimeTrack {
		// Runtime-track events live in their own ring so the last-N
		// samples ride along in flight dumps without evicting the plan
		// events the dump exists to show.
		m.runtime.ring.add(ev)
		if ev.Ph == trace.PhaseInstant && ev.Cat == trace.CatRuntime && ev.Name == runtimeobs.SampleEventName {
			m.foldRuntimeLocked(ev)
		}
		return
	}
	m.ring.add(ev)

	onProc := strings.HasPrefix(ev.Track, metrics.IOPrefix+"/") ||
		strings.HasPrefix(ev.Track, metrics.ComputePrefix+"/")
	if ph, stage, ok := trace.PhaseOf(ev); ok && onProc {
		m.foldSpanLocked(ev, ph, stage)
		return
	}
	if stage, ok := trace.ReadyOf(ev); ok && onProc {
		m.foldReadyLocked(ev, stage)
		return
	}
	switch {
	case ev.Ph == trace.PhaseCounter && ev.Track == trace.ModelTrack:
		m.foldModelLocked(ev)
	case ev.Ph == trace.PhaseInstant && ev.Cat == trace.CatFault:
		m.foldFaultLocked(ev)
	}
}

// foldModelLocked absorbs a model/t_* counter sample into the budgets.
func (m *Monitor) foldModelLocked(ev trace.Event) {
	v, ok := ev.ArgValue("value")
	if !ok {
		return
	}
	switch ev.Name {
	case "model/t_read":
		m.setBudgetLocked("read", v)
	case "model/t_comm":
		m.setBudgetLocked("comm", v)
	case "model/t_comp":
		m.setBudgetLocked("compute", v)
	}
}

// foldFaultLocked turns injected-fault events into incidents, so every
// injection is correlatable with the watchdog verdict that should follow.
func (m *Monitor) foldFaultLocked(ev trace.Event) {
	switch ev.Name {
	case "straggler", "straggle":
		// Announcement of an injected straggler: remember the factor so
		// the verdict can mark the trip as expected.
		if f, ok := ev.ArgValue("factor"); ok {
			m.injected[ev.Track] = f
		}
		if ev.Name == "straggle" {
			return // per-phase dilation beat, not worth an incident each
		}
	case "rank-death":
		m.dead[ev.Track] = true
		m.incidentLocked(Incident{
			Kind: "rank-death", Proc: ev.Track, Time: ev.Ts,
			Detail: "announced rank death",
			Edge:   m.ioEdgeLocked(ev.Track),
		}, true)
		return
	}
	m.incidentLocked(Incident{Kind: "fault", Proc: ev.Track, Time: ev.Ts, Detail: ev.Name}, false)
}

var _ trace.Sink = (*Monitor)(nil)
var _ plan.RunObserver = (*Monitor)(nil)
