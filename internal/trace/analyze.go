// Trace-derived analysis: the quantities the paper's evaluation plots (phase
// breakdowns, overlap percentages) folded from raw trace events — the only
// derivation a real run has, and the one tests hold the simulator's Result
// against — plus causality and capacity invariants.
//
// Conventions (shared by every instrumented schedule):
//
//   - phase activity is a span with Cat "phase" and Name equal to the
//     metrics.Phase string ("read", "comm", "compute", "wait");
//   - stage data readiness is an instant with Cat "stage", Name "ready"
//     and an Arg "stage"; compute spans of multi-stage schedules carry the
//     matching "stage" Arg;
//   - file-system service is a span with Cat "ost", Name "service" on the
//     OST's own track.

package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"senkf/internal/metrics"
)

// CatPhase is the category of phase-activity spans.
const CatPhase = "phase"

// CatStage is the category of stage readiness/handoff events.
const CatStage = "stage"

// CatOST is the category of file-system request spans.
const CatOST = "ost"

// CatFault is the category of injected-fault and recovery events (OST
// outages, member drops, rank deaths, failovers, retries).
const CatFault = "fault"

// CatComm is the category of per-message wire-telemetry events: one
// "deliver" instant per matched point-to-point message, carrying src, dst,
// tag, bytes, enqueue→deliver latency and the receiver's queue depth at
// match time. Wire events travel through Tee.EmitSide — secondary sinks
// only — so an unfaulted run's primary Chrome buffer stays byte-identical
// whether or not wire telemetry is on.
const CatComm = "comm"

// CommTrack is the track per-message wire events are emitted on.
const CommTrack = "comm"

// CatModel is the category of cost-model events: the "prediction" instant
// a simulated S-EnKF run emits at tuner decision time (carrying the
// Table-1 parameters, the chosen configuration and the Eq. 7–10 predicted
// terms) and the model/t_* counter samples that make model-vs-measured
// drift visible directly in a Chrome trace.
const CatModel = "model"

// ModelTrack is the track the cost-model events are emitted on.
const ModelTrack = "model"

// CatRuntime is the category of Go-runtime observability events: the
// periodic "sample" instants the runtime-metrics sampler
// (internal/runtimeobs) emits, carrying goroutine count, heap live/goal
// and GC-pause readings as args, so a Chrome trace and the live monitor
// see the process's runtime health on the same clock as the plan events.
const CatRuntime = "runtime"

// RuntimeTrack is the track the runtime sampler's events are emitted on.
const RuntimeTrack = "runtime"

// ArgStage is the Arg key carrying a stage index.
const ArgStage = "stage"

// ArgValue looks up an Arg by key.
func (e Event) ArgValue(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// phaseByName inverts metrics.Phase.String.
func phaseByName(name string) (metrics.Phase, bool) {
	switch name {
	case "read":
		return metrics.PhaseRead, true
	case "comm":
		return metrics.PhaseComm, true
	case "compute":
		return metrics.PhaseCompute, true
	case "wait":
		return metrics.PhaseWait, true
	}
	return 0, false
}

// Tracks returns the sorted distinct tracks with the given prefix that
// carry at least one phase span.
func Tracks(events []Event, trackPrefix string) []string {
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == PhaseSpan && ev.Cat == CatPhase && strings.HasPrefix(ev.Track, trackPrefix) {
			seen[ev.Track] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PhaseBreakdown sums phase-span durations across tracks with the given
// prefix. Truncated spans (negative duration, as left behind by ranks that
// died mid-phase) contribute nothing instead of subtracting time.
func PhaseBreakdown(events []Event, trackPrefix string) metrics.Breakdown {
	var b metrics.Breakdown
	for _, ev := range events {
		if ev.Ph != PhaseSpan || ev.Cat != CatPhase || !strings.HasPrefix(ev.Track, trackPrefix) {
			continue
		}
		if ph, ok := phaseByName(ev.Name); ok && ev.Dur > 0 {
			b.Add(ph, ev.Dur)
		}
	}
	return b
}

// MeanPhaseBreakdown divides the prefix breakdown by the number of tracks
// carrying phase spans: the per-processor averages of Figure 9.
func MeanPhaseBreakdown(events []Event, trackPrefix string) metrics.Breakdown {
	return PhaseBreakdown(events, trackPrefix).Mean(len(Tracks(events, trackPrefix)))
}

// PhaseSpans returns the merged busy spans of the given phases across
// tracks with the prefix, feeding metrics.OverlapDuration (Figure 11).
func PhaseSpans(events []Event, trackPrefix string, phases ...metrics.Phase) []metrics.Span {
	want := map[metrics.Phase]bool{}
	for _, p := range phases {
		want[p] = true
	}
	var raw []metrics.Span
	for _, ev := range events {
		if ev.Ph != PhaseSpan || ev.Cat != CatPhase || !strings.HasPrefix(ev.Track, trackPrefix) {
			continue
		}
		if ph, ok := phaseByName(ev.Name); ok && want[ph] {
			raw = append(raw, metrics.Span{Start: ev.Ts, End: ev.Ts + ev.Dur})
		}
	}
	return metrics.UnionSpans(raw)
}

// CheckStageOrdering asserts the multi-stage causality invariant: on every
// track, the stage-l compute span must not start before the stage-l
// "ready" instant (the moment the last block of the stage arrived). It
// returns the number of compute spans checked; zero means the trace holds
// no staged computation (an instrumentation bug when one was expected).
func CheckStageOrdering(events []Event) (int, error) {
	ready := map[string]map[int]float64{} // track -> stage -> ts
	for _, ev := range events {
		if ev.Ph != PhaseInstant || ev.Cat != CatStage || ev.Name != "ready" {
			continue
		}
		stage, ok := ev.ArgValue(ArgStage)
		if !ok {
			continue
		}
		m := ready[ev.Track]
		if m == nil {
			m = map[int]float64{}
			ready[ev.Track] = m
		}
		m[int(stage)] = ev.Ts
	}
	checked := 0
	for _, ev := range events {
		if ev.Ph != PhaseSpan || ev.Cat != CatPhase || ev.Name != "compute" {
			continue
		}
		stage, ok := ev.ArgValue(ArgStage)
		if !ok {
			continue
		}
		ts, ok := ready[ev.Track][int(stage)]
		if !ok {
			return checked, fmt.Errorf("trace: %s computes stage %d with no ready event", ev.Track, int(stage))
		}
		// Allow the round-trip quantization of the microsecond encoding.
		if ev.Ts < ts-1e-9*math.Max(1, math.Abs(ts)) {
			return checked, fmt.Errorf("trace: %s starts stage-%d compute at %g before data ready at %g",
				ev.Track, int(stage), ev.Ts, ts)
		}
		checked++
	}
	return checked, nil
}

// CheckReadBeforeCompute asserts the block-reading causality invariant of
// the single-stage schedules (P-EnKF): on every track with the prefix, no
// compute span may start before the last read span has ended. It returns
// the number of tracks checked.
func CheckReadBeforeCompute(events []Event, trackPrefix string) (int, error) {
	type bounds struct {
		lastReadEnd       float64
		firstComputeStart float64
		hasRead, hasComp  bool
	}
	byTrack := map[string]*bounds{}
	for _, ev := range events {
		if ev.Ph != PhaseSpan || ev.Cat != CatPhase || !strings.HasPrefix(ev.Track, trackPrefix) {
			continue
		}
		b := byTrack[ev.Track]
		if b == nil {
			b = &bounds{}
			byTrack[ev.Track] = b
		}
		switch ev.Name {
		case "read":
			if end := ev.Ts + ev.Dur; !b.hasRead || end > b.lastReadEnd {
				b.lastReadEnd = end
			}
			b.hasRead = true
		case "compute":
			if !b.hasComp || ev.Ts < b.firstComputeStart {
				b.firstComputeStart = ev.Ts
			}
			b.hasComp = true
		}
	}
	checked := 0
	for track, b := range byTrack {
		if !b.hasRead || !b.hasComp {
			continue
		}
		if b.firstComputeStart < b.lastReadEnd-1e-9*math.Max(1, math.Abs(b.lastReadEnd)) {
			return checked, fmt.Errorf("trace: %s starts compute at %g before reads finish at %g",
				track, b.firstComputeStart, b.lastReadEnd)
		}
		checked++
	}
	return checked, nil
}

// MaxConcurrent returns, per track with the given prefix, the maximum
// number of simultaneously open spans with the given category and name —
// used to assert that per-OST in-flight requests never exceed the
// configured concurrency limit.
func MaxConcurrent(events []Event, trackPrefix, cat, name string) map[string]int {
	type edge struct {
		t     float64
		delta int
	}
	edges := map[string][]edge{}
	for _, ev := range events {
		if ev.Ph != PhaseSpan || ev.Cat != cat || ev.Name != name || !strings.HasPrefix(ev.Track, trackPrefix) {
			continue
		}
		edges[ev.Track] = append(edges[ev.Track],
			edge{t: ev.Ts, delta: +1}, edge{t: ev.Ts + ev.Dur, delta: -1})
	}
	out := map[string]int{}
	for track, es := range edges {
		// Ends sort before starts at equal timestamps: capacity handed
		// from a releasing request to a queued one at the same instant
		// must not double-count.
		sort.Slice(es, func(i, j int) bool {
			if es[i].t != es[j].t {
				return es[i].t < es[j].t
			}
			return es[i].delta < es[j].delta
		})
		cur, max := 0, 0
		for _, e := range es {
			cur += e.delta
			if cur > max {
				max = cur
			}
		}
		out[track] = max
	}
	return out
}
