// Package report turns a traced run into a structured, machine-readable
// run report: per-class phase breakdowns and overlap shares recomputed
// from the raw events, the critical path with per-phase attribution, the
// per-stage pipeline overlap efficiency, and — when the trace carries the
// cost-model "prediction" instant a simulated S-EnKF run emits — the
// model-vs-measured drift of every Eq. 7–10 term, including whether the
// auto-tuner would have decided differently under measured coefficients.
//
// The bench regression pipeline — versioned BENCH_<n>.json records of a
// deterministic simulated suite and the tolerance gate CI runs against the
// previously committed record — lives in internal/report/bench, above this
// package, because it runs the simulator.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"senkf/internal/costmodel"
	"senkf/internal/metrics"
	"senkf/internal/trace"
)

// Schema is the run-report schema version.
const Schema = 1

// RunInfo is the cost-model context decoded from the trace's "prediction"
// and "decision" instants.
type RunInfo struct {
	Params costmodel.Params `json:"params"`
	Choice costmodel.Choice `json:"choice"`
	// Predicted Eq. 7–10 terms as emitted at decision time.
	PredTRead  float64 `json:"pred_t_read"`
	PredTComm  float64 `json:"pred_t_comm"`
	PredTComp  float64 `json:"pred_t_comp"`
	PredTTotal float64 `json:"pred_t_total"`
	// Tuner decision context (zero unless HasDecision).
	NP          int                       `json:"np,omitempty"`
	Eps         float64                   `json:"eps,omitempty"`
	Constraints costmodel.TuneConstraints `json:"constraints,omitempty"`
	HasDecision bool                      `json:"has_decision"`
}

func argInt(ev trace.Event, key string) int {
	v, _ := ev.ArgValue(key)
	return int(v)
}

// ExtractRunInfo decodes the model events from a trace. ok is false when
// the trace carries no prediction instant (an untraced-model run — phase
// and critical-path reporting still work, drift does not).
func ExtractRunInfo(events []trace.Event) (RunInfo, bool) {
	var info RunInfo
	found := false
	for _, ev := range events {
		if ev.Ph != trace.PhaseInstant || ev.Cat != trace.CatModel {
			continue
		}
		switch ev.Name {
		case "prediction":
			info.Choice = costmodel.Choice{
				NSdx: argInt(ev, "nsdx"), NSdy: argInt(ev, "nsdy"),
				L: argInt(ev, "l"), NCg: argInt(ev, "ncg"),
			}
			info.PredTRead, _ = ev.ArgValue("t_read")
			info.PredTComm, _ = ev.ArgValue("t_comm")
			info.PredTComp, _ = ev.ArgValue("t_comp")
			info.PredTTotal, _ = ev.ArgValue("t_total")
			a, _ := ev.ArgValue("a")
			b, _ := ev.ArgValue("b")
			c, _ := ev.ArgValue("c")
			theta, _ := ev.ArgValue("theta")
			info.Params = costmodel.Params{
				N: argInt(ev, "n"), NX: argInt(ev, "nx"), NY: argInt(ev, "ny"),
				A: a, B: b, C: c, Theta: theta,
				Xi: argInt(ev, "xi"), Eta: argInt(ev, "eta"), H: argInt(ev, "h"),
			}
			found = true
		case "decision":
			info.NP = argInt(ev, "np")
			info.Eps, _ = ev.ArgValue("eps")
			info.Constraints = costmodel.TuneConstraints{
				MaxL: argInt(ev, "max_l"), MaxNCg: argInt(ev, "max_ncg"),
			}
			info.HasDecision = true
		}
	}
	return info, found
}

// CritPathSummary condenses the extracted critical path for the report.
type CritPathSummary struct {
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Total    float64 `json:"total"` // summed segment time, tiles [Start, End]
	Segments int     `json:"segments"`
	// CoverageError is |Total − runtime| / runtime: how much of the
	// end-to-end time the path fails to explain (reports gate on ≤ 1%).
	CoverageError float64 `json:"coverage_error"`
	// Attribution maps "<class>/<phase>" to critical-path seconds.
	Attribution map[string]float64 `json:"attribution"`
}

// Report is the structured outcome of one traced run.
type Report struct {
	Schema  int     `json:"schema"`
	Runtime float64 `json:"runtime"` // last span end (virtual or wall seconds)

	IOTracks      int               `json:"io_tracks"`
	ComputeTracks int               `json:"compute_tracks"`
	IOMean        metrics.Breakdown `json:"io_mean"`      // mean per I/O processor
	ComputeMean   metrics.Breakdown `json:"compute_mean"` // mean per compute processor

	// Figure 11 accounting, recomputed from the trace.
	OverlapFraction        float64 `json:"overlap_fraction"`
	OverlapRuntimeFraction float64 `json:"overlap_runtime_fraction"`

	CriticalPath CritPathSummary `json:"critical_path"`

	// Per-stage pipeline accounting (empty when I/O spans carry no stage
	// tags — e.g. real-execution traces).
	Stages             []StageOverlap `json:"stages,omitempty"`
	PipelineEfficiency float64        `json:"pipeline_efficiency"`

	// Model drift; nil when the trace has no prediction instant.
	Model *ModelSection `json:"model,omitempty"`
}

// ModelSection is the cost-model half of the report.
type ModelSection struct {
	Info     RunInfo               `json:"info"`
	Measured costmodel.Measured    `json:"measured"`
	Drift    costmodel.DriftReport `json:"drift"`
}

// maxRetuneExtent caps the mesh sides and member count for which Build
// re-runs the auto-tuner. Its search walks divisors in O(√n) steps per
// compute cost: about 2 s when all three are 55,440, and more than 30 s
// for a trace that claims a 1e18-row mesh. The paper's mesh is 3600×1800
// with N = 120.
const maxRetuneExtent = 1 << 16

// classFold is one processor class's share of the phase spans: its tracks,
// its phase totals and the busy spans Figure 11's overlap counts.
type classFold struct {
	tracks map[string]bool
	sum    metrics.Breakdown
	busy   []metrics.Span
}

func (c *classFold) add(s span, busy bool) {
	c.tracks[s.track] = true
	if s.dur > 0 {
		c.sum.Add(s.phase, s.dur)
	}
	if busy {
		c.busy = append(c.busy, metrics.Span{Start: s.start, End: s.end})
	}
}

// Build computes the report from trace events. It decodes the phase spans
// once, in event order, and folds everything from them.
func Build(events []trace.Event) (*Report, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("report: empty trace")
	}
	r := &Report{Schema: Schema}
	for _, ev := range events {
		if ev.Ph != trace.PhaseSpan {
			continue
		}
		if end := ev.Ts + ev.Dur; end > r.Runtime {
			r.Runtime = end
		}
	}
	phases := phaseSpans(events)
	io, cp := classFold{tracks: map[string]bool{}}, classFold{tracks: map[string]bool{}}
	for _, s := range phases {
		switch {
		case strings.HasPrefix(s.track, metrics.IOPrefix):
			io.add(s, s.phase == metrics.PhaseRead || s.phase == metrics.PhaseComm)
		case strings.HasPrefix(s.track, metrics.ComputePrefix):
			cp.add(s, s.phase == metrics.PhaseCompute)
		}
	}
	r.IOTracks, r.ComputeTracks = len(io.tracks), len(cp.tracks)
	r.IOMean, r.ComputeMean = io.sum.Mean(r.IOTracks), cp.sum.Mean(r.ComputeTracks)

	ioSpans, cpSpans := metrics.UnionInPlace(io.busy), metrics.UnionInPlace(cp.busy)
	overlap := metrics.OverlapDuration(ioSpans, cpSpans)
	if busy := metrics.SpanTotal(ioSpans); busy > 0 {
		r.OverlapFraction = math.Min(1, overlap/busy)
	}
	if r.Runtime > 0 {
		r.OverlapRuntimeFraction = overlap / r.Runtime
	}

	path, err := extract(phases)
	if err != nil {
		return nil, err
	}
	r.CriticalPath = CritPathSummary{
		Start:       path.Start,
		End:         path.End,
		Total:       path.Total(),
		Segments:    len(path.Segments),
		Attribution: path.Attribution(),
	}
	if r.Runtime > 0 {
		r.CriticalPath.CoverageError = math.Abs(path.Total()-r.Runtime) / r.Runtime
	}

	r.Stages = stageOverlaps(phases)
	r.PipelineEfficiency = PipelineEfficiency(r.Stages)

	if info, ok := ExtractRunInfo(events); ok {
		ms := &ModelSection{Info: info}
		l := float64(info.Choice.L)
		if r.IOTracks > 0 && l > 0 {
			// The model terms are per-stage, per-processor costs; the mean
			// breakdowns are per-processor totals over L stages.
			ms.Measured = costmodel.Measured{
				TRead: r.IOMean.Read / l,
				TComm: r.IOMean.Comm / l,
				TComp: r.ComputeMean.Compute / l,
			}
			ms.Drift = info.Params.Drift(info.Choice, ms.Measured)
			if info.HasDecision && max(info.Params.NX, info.Params.NY, info.Params.N) <= maxRetuneExtent {
				ms.Drift.Retune(info.NP, info.Eps, info.Constraints)
			}
			r.Model = ms
		}
	}
	return r, nil
}

// WriteText renders the report as a human-readable summary.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("run report (schema %d)\n", r.Schema); err != nil {
		return err
	}
	if err := p("  runtime: %.6gs over %d I/O + %d compute tracks\n",
		r.Runtime, r.IOTracks, r.ComputeTracks); err != nil {
		return err
	}
	if err := p("  mean I/O proc:     read %.6gs  comm %.6gs  wait %.6gs\n",
		r.IOMean.Read, r.IOMean.Comm, r.IOMean.Wait); err != nil {
		return err
	}
	if err := p("  mean compute proc: wait %.6gs  compute %.6gs  read %.6gs\n",
		r.ComputeMean.Wait, r.ComputeMean.Compute, r.ComputeMean.Read); err != nil {
		return err
	}
	if err := p("  overlapped share of I/O+comm: %.1f%% (%.1f%% of runtime)\n",
		100*r.OverlapFraction, 100*r.OverlapRuntimeFraction); err != nil {
		return err
	}
	if err := p("critical path: %d segments covering %.6gs of %.6gs (coverage error %.3g%%)\n",
		r.CriticalPath.Segments, r.CriticalPath.Total, r.Runtime, 100*r.CriticalPath.CoverageError); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.CriticalPath.Attribution))
	for k := range r.CriticalPath.Attribution {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return r.CriticalPath.Attribution[keys[i]] > r.CriticalPath.Attribution[keys[j]]
	})
	for _, k := range keys {
		v := r.CriticalPath.Attribution[k]
		if err := p("  %-14s %10.6gs (%5.1f%%)\n", k, v, 100*v/r.CriticalPath.Total); err != nil {
			return err
		}
	}
	if len(r.Stages) > 0 {
		if err := p("pipeline overlap per stage (ideal: stage 0 exposed, rest hidden):\n"); err != nil {
			return err
		}
		for _, s := range r.Stages {
			if err := p("  stage %2d: io busy %.6gs, hidden %.6gs (%.1f%%)\n",
				s.Stage, s.IOBusy, s.Hidden, 100*s.Efficiency); err != nil {
				return err
			}
		}
		if err := p("  pipeline efficiency (stages >= 1): %.1f%%\n", 100*r.PipelineEfficiency); err != nil {
			return err
		}
	}
	if r.Model != nil {
		if err := r.Model.Drift.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}
