// Hot-stage attribution: join the two cost views of one run. The labeled
// CPU profile says where the process burned cycles, keyed by the
// {proc, stage} pprof labels; the trace says where the schedule spent
// wall-clock busy time, keyed by track and the "stage" span arg. Grouping
// both by (proc class, stage) and comparing the shares cross-checks the
// instrumentation: a stage whose CPU share is far from its busy share is
// either I/O-bound (busy ≫ CPU — waiting on the file system inside a
// "read" span) or hiding unattributed work (CPU ≫ busy — cycles burned
// outside any plan span).

package runtimeobs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"senkf/internal/metrics"
	"senkf/internal/trace"
)

// StageCost is one (processor class, stage) row of the attribution:
// profile CPU self-time next to trace busy time, each with its share of
// the run's labeled/busy total. Stage -1 collects unstaged work (the
// single-stage schedules, span setup, per-proc bookkeeping).
type StageCost struct {
	Class       string  `json:"class"`
	Stage       int     `json:"stage"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	CPUShare    float64 `json:"cpu_share"`
	BusySeconds float64 `json:"busy_seconds"`
	BusyShare   float64 `json:"busy_share"`
}

// Attribution is the merged ranking. MaxShareError is the largest
// |CPUShare - BusyShare| across rows that carry both views — the
// quantity the acceptance test bounds on a deterministic CPU-heavy
// workload.
type Attribution struct {
	TotalCPUSeconds   float64     `json:"total_cpu_seconds"`
	LabeledCPUSeconds float64     `json:"labeled_cpu_seconds"`
	TotalBusySeconds  float64     `json:"total_busy_seconds"`
	Stages            []StageCost `json:"stages"`
	MaxShareError     float64     `json:"max_share_error"`
}

// LabeledFraction is the share of profile CPU time carrying a proc label
// — how much of the process the plan coordinates explain.
func (a *Attribution) LabeledFraction() float64 {
	if a.TotalCPUSeconds <= 0 {
		return 0
	}
	return a.LabeledCPUSeconds / a.TotalCPUSeconds
}

// WriteTable renders the ranked hot-stage table: per-{class, stage} CPU
// self-time next to trace busy time, the unlabeled remainder, and the
// labeled-fraction / max-share-error footer. Both the run report and
// senkf-report hotspots print this shape.
func (a *Attribution) WriteTable(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("hot stages (CPU profile self-time vs trace busy time):\n"); err != nil {
		return err
	}
	if err := p("  %-8s %-5s %10s %7s %10s %7s\n",
		"class", "stage", "cpu", "share", "busy", "share"); err != nil {
		return err
	}
	for _, s := range a.Stages {
		stage := strconv.Itoa(s.Stage)
		if s.Stage < 0 {
			stage = "-"
		}
		if err := p("  %-8s %-5s %9.4gs %6.1f%% %9.4gs %6.1f%%\n",
			s.Class, stage, s.CPUSeconds, 100*s.CPUShare, s.BusySeconds, 100*s.BusyShare); err != nil {
			return err
		}
	}
	if a.TotalCPUSeconds > 0 {
		unlabeled := a.TotalCPUSeconds - a.LabeledCPUSeconds
		if err := p("  %-8s %-5s %9.4gs %6.1f%%\n",
			"(other)", "-", unlabeled, 100*unlabeled/a.TotalCPUSeconds); err != nil {
			return err
		}
	}
	return p("  labeled fraction %.1f%% of %.4gs CPU; max share error vs trace %.1f%%\n",
		100*a.LabeledFraction(), a.TotalCPUSeconds, 100*a.MaxShareError)
}

type stageKey struct {
	class string
	stage int
}

// Attribute merges a parsed CPU profile with a run's trace events into
// the ranked hot-stage table. The profile must carry a cpu/nanoseconds
// column (or samples/count with a known period); events may be empty, in
// which case only the CPU side is populated.
func Attribute(p *Profile, events []trace.Event) (*Attribution, error) {
	cpuIdx := p.ValueIndex("cpu")
	sampIdx := p.ValueIndex("samples")
	if cpuIdx < 0 && (sampIdx < 0 || p.PeriodNanos <= 0) {
		return nil, errors.New("runtimeobs: profile has no cpu time column")
	}
	cpuOf := func(s Sample) float64 {
		if cpuIdx >= 0 && cpuIdx < len(s.Values) {
			return float64(s.Values[cpuIdx]) / 1e9
		}
		if sampIdx >= 0 && sampIdx < len(s.Values) {
			return float64(s.Values[sampIdx]) * float64(p.PeriodNanos) / 1e9
		}
		return 0
	}

	attr := &Attribution{}
	rows := map[stageKey]*StageCost{}
	row := func(k stageKey) *StageCost {
		r := rows[k]
		if r == nil {
			r = &StageCost{Class: k.class, Stage: k.stage}
			rows[k] = r
		}
		return r
	}

	for _, s := range p.Samples {
		cpu := cpuOf(s)
		attr.TotalCPUSeconds += cpu
		proc, ok := s.Labels[LabelProc]
		if !ok || cpu == 0 {
			continue
		}
		attr.LabeledCPUSeconds += cpu
		stage := -1
		if sl, ok := s.Labels[LabelStage]; ok {
			if v, err := strconv.Atoi(sl); err == nil {
				stage = v
			}
		}
		row(stageKey{class: ClassOf(proc), stage: stage}).CPUSeconds += cpu
	}

	for _, ev := range events {
		ph, stage, ok := trace.PhaseOf(ev)
		if !ok || ph == metrics.PhaseWait || ev.Dur <= 0 { // waiting is not busy time
			continue
		}
		r := row(stageKey{class: ClassOf(ev.Track), stage: stage})
		r.BusySeconds += ev.Dur
		attr.TotalBusySeconds += ev.Dur
	}

	for _, r := range rows {
		if attr.LabeledCPUSeconds > 0 {
			r.CPUShare = r.CPUSeconds / attr.LabeledCPUSeconds
		}
		if attr.TotalBusySeconds > 0 {
			r.BusyShare = r.BusySeconds / attr.TotalBusySeconds
		}
		if r.CPUSeconds > 0 && r.BusySeconds > 0 {
			if d := math.Abs(r.CPUShare - r.BusyShare); d > attr.MaxShareError {
				attr.MaxShareError = d
			}
		}
		attr.Stages = append(attr.Stages, *r)
	}
	sort.Slice(attr.Stages, func(i, j int) bool {
		a, b := attr.Stages[i], attr.Stages[j]
		if a.CPUSeconds != b.CPUSeconds {
			return a.CPUSeconds > b.CPUSeconds
		}
		if a.BusySeconds != b.BusySeconds {
			return a.BusySeconds > b.BusySeconds
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Stage < b.Stage
	})
	return attr, nil
}

// ProfileStages returns the sorted distinct stage indices the profile's
// labeled samples carry — what the CI smoke job asserts covers every
// plan stage kind.
func ProfileStages(p *Profile) []int {
	seen := map[int]bool{}
	for _, s := range p.Samples {
		sl, ok := s.Labels[LabelStage]
		if !ok {
			continue
		}
		if v, err := strconv.Atoi(sl); err == nil {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
