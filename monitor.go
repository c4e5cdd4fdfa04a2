// Live-monitoring facade: the streaming observability layer of
// internal/monitor re-exported for the binaries and external users. A
// Monitor tees off a run's trace event stream (never perturbing the
// primary Chrome-trace sink), folds it into live plan conformance against
// the compiled plan's expected DAG, checks every phase against Eq. 7–10
// cost-model budgets (watchdog), serves Prometheus metrics at /metrics and
// a JSON summary at /status, and keeps a flight-recorder ring of the most
// recent events that dumps on the first anomaly.

package senkf

import (
	"senkf/internal/cycle"
	"senkf/internal/faults"
	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

type (
	// Monitor is the live plan-conformance monitor, watchdog, metrics
	// exporter and flight recorder. It is a TraceSink (attach through
	// NewTraceTee or Monitor.Tee) and a RunObserver (attach through
	// Problem.Obs / Machine.Obs).
	Monitor = monitor.Monitor
	// MonitorOptions configures the anomaly dump path, the registry the
	// monitor counts into, the run's identity and logger, and the wire
	// collector the monitor judges (Wire).
	MonitorOptions = monitor.Options
	// MonitorStatus is the live run summary served at /status.
	MonitorStatus = monitor.Status
	// MonitorIncident is one observed anomaly (watchdog trip, deadlock,
	// rank death, plan divergence, injected fault).
	MonitorIncident = monitor.Incident
	// WatchdogVerdict is one budget-watchdog trip: the (proc, phase,
	// stage) that exceeded budget × tolerance.
	WatchdogVerdict = monitor.Verdict
	// CycleSample is one assimilation cycle's outcome as published to the
	// monitor's per-cycle series.
	CycleSample = monitor.CycleSample
	// RunObserver observes run boundaries of either substrate.
	RunObserver = plan.RunObserver
	// TraceTee fans one event stream out to a primary (synchronous) and a
	// secondary (buffered, never blocking the primary) sink.
	TraceTee = trace.Tee
	// MonitorRunError decorates a failed monitored run with blamed plan
	// edges and the flight-recorder dump.
	MonitorRunError = monitor.RunError
	// Straggler names one processor slowed by an injected factor.
	Straggler = faults.Straggler
)

// NewMonitor returns a monitor with its own streaming-metrics registry.
func NewMonitor(opts MonitorOptions) *Monitor { return monitor.New(opts) }

// NewTraceTee fans events out to primary (inline, order-preserving) and
// secondary (via an unbounded FIFO drained by one goroutine, so a slow
// secondary never blocks or reorders the primary).
func NewTraceTee(primary, secondary TraceSink) *TraceTee {
	return trace.NewTee(primary, secondary)
}

// ParseStraggler parses a "proc:factor" specification (e.g. "io/g0/r0:30")
// into an injected straggler.
func ParseStraggler(spec string) (Straggler, error) { return faults.ParseStraggler(spec) }

// RunCyclesObserved is RunCycles with a per-cycle callback — feed
// Monitor.RecordCycle to publish the per-cycle series while running.
func RunCyclesObserved(c CycleConfig, truth []float64, ensemble [][]float64, cycles int, analyze Analyzer, onCycle func(CycleStats)) ([]CycleStats, error) {
	return cycle.RunObserved(c, truth, ensemble, cycles, analyze, onCycle)
}
