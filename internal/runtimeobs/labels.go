// Package runtimeobs is the runtime observability layer under the logical
// one: where internal/trace and internal/monitor see the *schedule* (spans,
// releases, budgets), this package sees the *substrate cost* of executing
// it — CPU self-time, allocation pressure, GC pauses and scheduler health —
// and ties both views together through a shared coordinate system.
//
// Three pieces:
//
//   - pprof label propagation (this file): every goroutine executing plan
//     work — real ranks in core.ExecutePlan, simulated processes in
//     internal/sim, the cycle loop — runs under pprof.Do with labels
//     {run_id, algo, substrate, proc, stage} derived from the same stable
//     proc names the plan layer mints, so CPU profiles slice by plan
//     coordinates (`go tool pprof -tagfocus stage=3`);
//   - a runtime-metrics sampler (sampler.go): runtime/metrics readings
//     streamed into the trace event stream (CatRuntime instants + counter
//     series) and the counter registry on a configurable cadence;
//   - hot-stage attribution (attr.go + pprofproto.go): labeled CPU
//     profiles parsed back into per-(class, stage) self-time and
//     cross-checked against trace busy time.
//
// The package sits below the plan layer: it imports only the standard
// library and internal/trace, never a substrate or an upper layer, so
// plan, monitor, report and runlog can all build on it. CI enforces the
// layering (scripts/check-layering.sh).
//
// Known limitation: Go records pprof labels on CPU (and goroutine)
// profiles only — heap profiles carry no labels, so heap attribution
// comes from the sampler's time series, not from per-stage heap slices.
package runtimeobs

import (
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Label keys of the plan-coordinate taxonomy. LabelRunID/LabelAlgo/
// LabelSubstrate identify the run, LabelProc the plan-minted processor
// name ("io/g0/r1", "comp/x0y1", "cycle", an OST, ...), LabelStage the
// plan stage index the goroutine is executing.
const (
	LabelRunID     = "run_id"
	LabelAlgo      = "algo"
	LabelSubstrate = "substrate"
	LabelProc      = "proc"
	LabelStage     = "stage"
)

// LabelSet carries one run's base pprof labels. A nil *LabelSet is the
// disabled fast path: every method is a nil-receiver no-op that runs the
// given function unlabeled, so unprofiled runs pay only a pointer check.
type LabelSet struct {
	base context.Context
}

// Labels builds the run's label set: {run_id, algo, substrate}.
func Labels(runID, algo, substrate string) *LabelSet {
	return &LabelSet{base: pprof.WithLabels(context.Background(),
		pprof.Labels(LabelRunID, runID, LabelAlgo, algo, LabelSubstrate, substrate))}
}

// Scope returns the per-processor label scope: the run labels plus
// {proc}. Nil-safe; a nil LabelSet yields a nil (no-op) Scope.
func (l *LabelSet) Scope(proc string) *Scope {
	if l == nil {
		return nil
	}
	return &Scope{ctx: pprof.WithLabels(l.base, pprof.Labels(LabelProc, proc))}
}

// Scope is one processor's label context. Nil is the disabled no-op.
type Scope struct {
	ctx context.Context
}

// Do runs fn with the scope's labels set on the current goroutine (and
// inherited by goroutines fn spawns), returning fn's error. The labels stay
// set when fn returns, as pprof.Do(s.ctx, ...) would leave them; setting
// the prebuilt context allocates nothing.
func (s *Scope) Do(fn func() error) error {
	if s == nil {
		return fn()
	}
	pprof.SetGoroutineLabels(s.ctx)
	return fn()
}

// Stage runs fn with the scope's labels plus {stage: <stage>}. A negative
// stage (unstaged work) runs under the scope labels alone.
func (s *Scope) Stage(stage int, fn func() error) error {
	if s == nil {
		return fn()
	}
	if stage < 0 {
		return s.Do(fn)
	}
	var err error
	pprof.Do(s.ctx, pprof.Labels(LabelStage, strconv.Itoa(stage)), func(context.Context) { err = fn() })
	return err
}

// ClassOf reduces a proc name to its class: the prefix before the first
// "/" ("io", "comp", "ost", "cycle", ...). The attribution tables group
// by class so 12,000 procs collapse to a handful of rows.
func ClassOf(proc string) string {
	if i := strings.IndexByte(proc, '/'); i >= 0 {
		return proc[:i]
	}
	return proc
}
