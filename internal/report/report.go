// Package report turns a traced run into a structured, machine-readable
// run report: per-class phase breakdowns and overlap shares recomputed
// from the raw events, the critical path with per-phase attribution, the
// per-stage pipeline overlap efficiency, and — when the trace carries the
// cost-model "prediction" instant a simulated S-EnKF run emits — the
// model-vs-measured drift of every Eq. 7–10 term, including whether the
// auto-tuner would have decided differently under measured coefficients.
//
// The same package implements the bench regression pipeline: versioned
// BENCH_<n>.json records of a deterministic simulated suite (config, wall
// times, phase breakdowns, model drift) and the tolerance gate CI runs
// against the previously committed record (see bench.go).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"senkf/internal/costmodel"
	"senkf/internal/metrics"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
	"senkf/internal/trace/critpath"
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
	Stages             []critpath.StageOverlap `json:"stages,omitempty"`
	PipelineEfficiency float64                 `json:"pipeline_efficiency"`

	// Model drift; nil when the trace has no prediction instant.
	Model *ModelSection `json:"model,omitempty"`

	// Hot-stage attribution from a labeled CPU profile merged onto the
	// trace; nil unless AttachHotStages was called with a profile.
	Hot *runtimeobs.Attribution `json:"hot_stages,omitempty"`

	// Counters ingested from a registry CSV, keyed "kind/name/field".
	Counters map[string]float64 `json:"counters,omitempty"`
}

// ModelSection is the cost-model half of the report.
type ModelSection struct {
	Info     RunInfo               `json:"info"`
	Measured costmodel.Measured    `json:"measured"`
	Drift    costmodel.DriftReport `json:"drift"`
}

// Build computes the report from trace events plus optional counters.
func Build(events []trace.Event, counters map[string]float64) (*Report, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("report: empty trace")
	}
	r := &Report{Schema: Schema, Counters: counters}
	for _, ev := range events {
		if ev.Ph != trace.PhaseSpan {
			continue
		}
		if end := ev.Ts + ev.Dur; end > r.Runtime {
			r.Runtime = end
		}
	}
	r.IOTracks = len(trace.Tracks(events, metrics.IOPrefix))
	r.ComputeTracks = len(trace.Tracks(events, metrics.ComputePrefix))
	r.IOMean = trace.MeanPhaseBreakdown(events, metrics.IOPrefix)
	r.ComputeMean = trace.MeanPhaseBreakdown(events, metrics.ComputePrefix)

	ioSpans := trace.PhaseSpans(events, metrics.IOPrefix, metrics.PhaseRead, metrics.PhaseComm)
	cpSpans := trace.PhaseSpans(events, metrics.ComputePrefix, metrics.PhaseCompute)
	overlap := metrics.OverlapDuration(ioSpans, cpSpans)
	if busy := metrics.SpanTotal(ioSpans); busy > 0 {
		r.OverlapFraction = math.Min(1, overlap/busy)
	}
	if r.Runtime > 0 {
		r.OverlapRuntimeFraction = overlap / r.Runtime
	}

	path, err := critpath.Extract(events)
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

	r.Stages = critpath.StageOverlaps(events)
	r.PipelineEfficiency = critpath.PipelineEfficiency(r.Stages)

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
			if info.HasDecision {
				ms.Drift.Retune(info.NP, info.Eps, info.Constraints)
			}
			r.Model = ms
		}
	}
	return r, nil
}

// AttachHotStages merges a labeled CPU profile (raw pprof bytes) onto
// the report's trace events, filling the Hot section: per-{class,stage}
// CPU self-time ranked against trace busy time. The profile must carry
// {proc, stage} labels (see internal/runtimeobs); unlabeled samples are
// accounted in the labeled-fraction footer rather than dropped silently.
func (r *Report) AttachHotStages(profile []byte, events []trace.Event) error {
	p, err := runtimeobs.ParseProfile(profile)
	if err != nil {
		return fmt.Errorf("report: hot stages: %w", err)
	}
	attr, err := runtimeobs.Attribute(p, events)
	if err != nil {
		return fmt.Errorf("report: hot stages: %w", err)
	}
	r.Hot = attr
	return nil
}

// ParseCountersCSV ingests the kind,name,field,value CSV written by
// trace.Registry.WriteCSV into a flat "kind/name/field" map.
func ParseCountersCSV(rd io.Reader) (map[string]float64, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("report: counters CSV: %w", err)
	}
	out := map[string]float64{}
	for i, row := range rows {
		if i == 0 && len(row) > 0 && row[0] == "kind" {
			continue // header
		}
		if len(row) != 4 {
			return nil, fmt.Errorf("report: counters CSV row %d has %d columns, want 4", i+1, len(row))
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("report: counters CSV row %d value %q: %w", i+1, row[3], err)
		}
		out[row[0]+"/"+row[1]+"/"+row[2]] = v
	}
	return out, nil
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
	if r.Hot != nil {
		if err := r.Hot.WriteTable(w); err != nil {
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
