// Edge cases of the trace-derived analysis: span-free traces, single-stage
// (L=1) runs whose pipeline degenerates, and resilient runs that drop
// members and leave truncated spans behind. These are external tests
// (package trace_test) because they drive real simulated schedules.

package trace_test

import (
	"slices"
	"strings"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/faults"
	"senkf/internal/metrics"
	"senkf/internal/parfs"
	"senkf/internal/report"
	"senkf/internal/schedule"
	"senkf/internal/trace"
)

func edgeConfig() schedule.Config {
	return schedule.Config{
		P: costmodel.Params{
			N: 24, NX: 360, NY: 180,
			A: 2e-6, B: 2e-10, C: 2e-3,
			Theta: 0.5e-9, Xi: 8, Eta: 4, H: 240,
		},
		FS: parfs.Config{
			OSTs:              8,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          0.5e-9,
			BackboneStreams:   12,
		},
	}
}

func tracedSEnKF(t *testing.T, cfg schedule.Config, ch costmodel.Choice) ([]trace.Event, schedule.Result) {
	t.Helper()
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(nil, buf)
	res, err := schedule.SimulateSEnKF(cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Events(), res
}

// busySpans merges the spans of the given phases on tracks with the prefix:
// the busy time Figure 11's overlap share counts, before any clamp.
func busySpans(events []trace.Event, prefix string, phases ...metrics.Phase) []metrics.Span {
	var raw []metrics.Span
	for _, ev := range events {
		if ph, _, ok := trace.PhaseOf(ev); ok && strings.HasPrefix(ev.Track, prefix) && slices.Contains(phases, ph) {
			raw = append(raw, metrics.Span{Start: ev.Ts, End: ev.Ts + ev.Dur})
		}
	}
	return metrics.UnionSpans(raw)
}

// Every analysis function must return its zero value on an empty or
// span-free trace instead of panicking or inventing data.
func TestAnalyzeZeroSpanTrace(t *testing.T) {
	for name, events := range map[string][]trace.Event{
		"empty": nil,
		"instants-only": {
			{Track: "model", Cat: trace.CatModel, Name: "prediction", Ph: trace.PhaseInstant},
			{Track: "io/g0/r0", Cat: trace.CatStage, Name: "ready", Ph: trace.PhaseInstant},
		},
	} {
		t.Run(name, func(t *testing.T) {
			if b := trace.PhaseBreakdown(events, metrics.IOPrefix); b != (metrics.Breakdown{}) {
				t.Errorf("PhaseBreakdown = %+v", b)
			}
			if r, err := report.Build(events); err == nil {
				t.Errorf("Build = %+v, want an error", r)
			}
			if n, err := trace.CheckStageOrdering(events); n != 0 || err != nil {
				t.Errorf("CheckStageOrdering = %d, %v", n, err)
			}
			if n, err := trace.CheckReadBeforeCompute(events, metrics.ComputePrefix); n != 0 || err != nil {
				t.Errorf("CheckReadBeforeCompute = %d, %v", n, err)
			}
			if m := trace.MaxConcurrent(events, "ost", trace.CatOST, "service"); len(m) != 0 {
				t.Errorf("MaxConcurrent = %v", m)
			}
		})
	}
}

// A single-stage run (L=1) has no pipeline: exactly one stage in the
// overlap accounting, efficiency 1 by definition, and the causality checks
// still hold.
func TestAnalyzeSingleStageRun(t *testing.T) {
	cfg := edgeConfig()
	ch := costmodel.Choice{NSdx: 4, NSdy: 3, L: 1, NCg: 2}
	if !cfg.P.Feasible(ch) {
		t.Fatal("choice infeasible")
	}
	events, res := tracedSEnKF(t, cfg, ch)
	if res.Runtime <= 0 {
		t.Fatalf("runtime = %g", res.Runtime)
	}
	if n, err := trace.CheckStageOrdering(events); err != nil || n == 0 {
		t.Fatalf("CheckStageOrdering = %d, %v", n, err)
	}
	r, err := report.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 1 || r.Stages[0].Stage != 0 {
		t.Fatalf("Stages = %v, want exactly stage 0", r.Stages)
	}
	if e := r.PipelineEfficiency; e != 1 {
		t.Fatalf("PipelineEfficiency = %g, want 1 (no stages past the fill)", e)
	}
	// The critical path must still tile end-to-end.
	if p := r.CriticalPath; p.Total != p.End-p.Start {
		t.Fatalf("path Total %g != End-Start %g", p.Total, p.End-p.Start)
	}
}

// A resilient run that drops members must still produce analyzable traces:
// non-negative breakdowns and an overlap share within [0, 1] even though
// failed ranks leave truncated spans behind.
func TestAnalyzeRunWithDroppedMembers(t *testing.T) {
	cfg := edgeConfig()
	ch := costmodel.Choice{NSdx: 4, NSdy: 3, L: 3, NCg: 2}
	if !cfg.P.Feasible(ch) {
		t.Fatal("choice infeasible")
	}
	cfg.Faults = &faults.Plan{FileFaults: []faults.FileFault{
		{Member: 5, Kind: faults.FileCorrupt},
		{Member: 11, Kind: faults.FileMissing},
	}}
	events, res := tracedSEnKF(t, cfg, ch)
	if len(res.DroppedMembers) == 0 {
		t.Fatal("fault plan dropped no members; test is vacuous")
	}
	for _, prefix := range []string{metrics.IOPrefix, metrics.ComputePrefix} {
		b := trace.PhaseBreakdown(events, prefix)
		if b.Read < 0 || b.Comm < 0 || b.Compute < 0 || b.Wait < 0 {
			t.Fatalf("%s breakdown has negative phases: %+v", prefix, b)
		}
	}
	io := busySpans(events, metrics.IOPrefix, metrics.PhaseRead, metrics.PhaseComm)
	cp := busySpans(events, metrics.ComputePrefix, metrics.PhaseCompute)
	busy := metrics.SpanTotal(io)
	if busy <= 0 {
		t.Fatal("no I/O busy time in a degraded run")
	}
	if share := metrics.OverlapDuration(io, cp) / busy; share < 0 || share > 1 {
		t.Fatalf("overlap share %g outside [0, 1] — truncated spans corrupt the union", share)
	}
	if res.OverlapFraction < 0 || res.OverlapFraction > 1 {
		t.Fatalf("Result.OverlapFraction = %g outside [0, 1]", res.OverlapFraction)
	}
}
