// Trace-derived analysis: the quantities the paper's evaluation plots (phase
// breakdowns, overlap percentages) folded from raw trace events — the only
// derivation a real run has, and the one tests hold the simulator's Result
// against — plus causality and capacity invariants.
//
// The plan events both engines emit are written and read here alone
// (scripts/check-layering.sh pins it): a phase span by Tracer.Phase and
// PhaseOf, a stage instant by Tracer.Stage and ReadyOf. File-system service
// is a span with Cat "ost", Name "service" on the OST's own track.
// Per-message and per-read wire traffic is not a trace event at all:
// internal/wire's collector counts it, and the monitor reads that.

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

// Phase emits one phase span: activity ph on track over [t0, t1], with Cat
// CatPhase, Name ph.String() and, when stage >= 0, an ArgStage arg.
func (t *Tracer) Phase(track string, ph metrics.Phase, t0, t1 float64, stage int) {
	if !t.Enabled() {
		return
	}
	ev := Event{Track: track, Cat: CatPhase, Name: ph.String(), Ph: PhaseSpan, Ts: t0, Dur: t1 - t0}
	if stage >= 0 {
		ev.Args = []Arg{{Key: ArgStage, Val: float64(stage)}}
	}
	t.emit(ev)
}

// Stage emits a stage instant on track at ts, with Cat CatStage and an
// ArgStage arg: "ready" when the stage's data is in hand and computing it is
// causally legal, "computed" when its analysis is done.
func (t *Tracer) Stage(track, name string, ts float64, stage int) {
	if t.Enabled() {
		t.Instant(track, CatStage, name, ts, Arg{Key: ArgStage, Val: float64(stage)})
	}
}

// PhaseOf decodes a span Tracer.Phase wrote: its phase and its stage, -1
// when it carries none. ok is false for every other event, a "phase" span
// named by no metrics.Phase included.
func PhaseOf(ev Event) (ph metrics.Phase, stage int, ok bool) {
	if ev.Ph != PhaseSpan || ev.Cat != CatPhase {
		return 0, -1, false
	}
	for ph := metrics.PhaseRead; ph <= metrics.PhaseWait; ph++ {
		if ev.Name == ph.String() {
			return ph, stageArg(ev), true
		}
	}
	return 0, -1, false
}

// ReadyOf decodes a "ready" instant Tracer.Stage wrote: its stage, -1 when
// it carries none. ok is false for every other event.
func ReadyOf(ev Event) (stage int, ok bool) {
	if ev.Ph != PhaseInstant || ev.Cat != CatStage || ev.Name != "ready" {
		return -1, false
	}
	return stageArg(ev), true
}

func stageArg(ev Event) int {
	if v, ok := ev.ArgValue(ArgStage); ok {
		return int(v)
	}
	return -1
}

// PhaseBreakdown sums phase-span durations across tracks with the given
// prefix. Truncated spans (negative duration, as left behind by ranks that
// died mid-phase) contribute nothing instead of subtracting time.
func PhaseBreakdown(events []Event, trackPrefix string) metrics.Breakdown {
	var b metrics.Breakdown
	for _, ev := range events {
		if ph, _, ok := PhaseOf(ev); ok && ev.Dur > 0 && strings.HasPrefix(ev.Track, trackPrefix) {
			b.Add(ph, ev.Dur)
		}
	}
	return b
}

// CheckStageOrdering asserts the multi-stage causality invariant: on every
// track, the stage-l compute span must not start before the stage-l
// "ready" instant (the moment the last block of the stage arrived). It
// returns the number of compute spans checked; zero means the trace holds
// no staged computation (an instrumentation bug when one was expected).
func CheckStageOrdering(events []Event) (int, error) {
	ready := map[string]map[int]float64{} // track -> stage -> ts
	for _, ev := range events {
		stage, ok := ReadyOf(ev)
		if !ok || stage < 0 {
			continue
		}
		m := ready[ev.Track]
		if m == nil {
			m = map[int]float64{}
			ready[ev.Track] = m
		}
		m[stage] = ev.Ts
	}
	checked := 0
	for _, ev := range events {
		ph, stage, ok := PhaseOf(ev)
		if !ok || ph != metrics.PhaseCompute || stage < 0 {
			continue
		}
		ts, ok := ready[ev.Track][stage]
		if !ok {
			return checked, fmt.Errorf("trace: %s computes stage %d with no ready event", ev.Track, stage)
		}
		// Allow the round-trip quantization of the microsecond encoding.
		if ev.Ts < ts-1e-9*math.Max(1, math.Abs(ts)) {
			return checked, fmt.Errorf("trace: %s starts stage-%d compute at %g before data ready at %g",
				ev.Track, stage, ev.Ts, ts)
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
		ph, _, ok := PhaseOf(ev)
		if !ok || !strings.HasPrefix(ev.Track, trackPrefix) {
			continue
		}
		b := byTrack[ev.Track]
		if b == nil {
			b = &bounds{}
			byTrack[ev.Track] = b
		}
		switch ph {
		case metrics.PhaseRead:
			if end := ev.Ts + ev.Dur; !b.hasRead || end > b.lastReadEnd {
				b.lastReadEnd = end
			}
			b.hasRead = true
		case metrics.PhaseCompute:
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
