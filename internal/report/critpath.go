// The critical path of a traced run, and its end-to-end time attributed to
// phases per processor class.
//
// The engines emit one phase span per activity per processor track
// (trace.Tracer.Phase). The critical path is the chain of activities that
// bounds the end-to-end time: starting from the span that finishes last —
// the final local analysis of the slowest compute processor — the
// extractor walks backwards in time, at every step following the activity
// that released the current one:
//
//   - an earlier span on the same track that ends exactly where the
//     current one starts (the processor was continuously busy), or
//   - a span on another track ending at that instant (the data the
//     current activity waited for: the comm span of the I/O processor
//     that produced the stage-ready notification, the OST service that
//     completed the read, ...), or
//   - when no span ends there, a synthetic "blocked" segment bridging the
//     gap back to the latest span that ends before it (time the whole
//     chain spent queued on a resource none of the phase spans cover).
//
// The resulting segments tile the interval from the chain's origin to the
// run's end, so the segment durations sum to the end-to-end wall time —
// the property the run reports assert (within 1%) and the reason the
// per-phase attribution is trustworthy: every second of the run is
// charged to exactly one activity class.

package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"senkf/internal/metrics"
	"senkf/internal/trace"
)

// BlockedName is the synthetic segment name for gaps on the critical path
// not covered by any phase span.
const BlockedName = "blocked"

// Segment is one activity on the critical path.
type Segment struct {
	Track string  `json:"track"`
	Name  string  `json:"name"` // phase name, or BlockedName for gaps
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Stage int     `json:"stage"` // stage index of the span, -1 when untagged
}

// Duration returns the segment length.
func (s Segment) Duration() float64 { return s.End - s.Start }

// Class returns the processor-class prefix of the segment's track ("io",
// "comp", ...): everything up to the first '/'.
func (s Segment) Class() string {
	if i := strings.IndexByte(s.Track, '/'); i >= 0 {
		return s.Track[:i]
	}
	return s.Track
}

// Path is an extracted critical path: segments in increasing time order,
// tiling [Start, End] exactly.
type Path struct {
	Start    float64   `json:"start"`
	End      float64   `json:"end"`
	Segments []Segment `json:"segments"`
}

// Total returns the summed segment duration — by construction equal to
// End − Start.
func (p Path) Total() float64 {
	var t float64
	for _, s := range p.Segments {
		t += s.Duration()
	}
	return t
}

// Attribution sums critical-path time per "<class>/<name>" key, e.g.
// "comp/compute", "io/read", "comp/blocked" — where the end-to-end time
// actually went.
func (p Path) Attribution() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.Segments {
		out[s.Class()+"/"+s.Name] += s.Duration()
	}
	return out
}

// tol is the relative timestamp tolerance for "ends exactly at": the
// microsecond quantization of the Chrome round trip, scaled to the
// magnitude of the timestamp.
func tol(t float64) float64 { return 1e-9 * math.Max(1, math.Abs(t)) }

// span is one phase span as trace.PhaseOf decodes it. end is Ts + Dur, so
// it lies before start when the span was truncated.
type span struct {
	track           string
	phase           metrics.Phase
	start, end, dur float64
	stage           int
}

// phaseSpans decodes the trace's phase spans once, in event order.
func phaseSpans(events []trace.Event) []span {
	var out []span
	for _, ev := range events {
		if ph, stage, ok := trace.PhaseOf(ev); ok {
			out = append(out, span{track: ev.Track, phase: ph, start: ev.Ts, end: ev.Ts + ev.Dur, dur: ev.Dur, stage: stage})
		}
	}
	return out
}

// better ranks candidate releasing spans: busy beats wait, then the
// current track (continuous busy chain), then the longest, then track
// order for determinism.
func better(s, pick span, curTrack string) bool {
	if sw, pw := s.phase == metrics.PhaseWait, pick.phase == metrics.PhaseWait; sw != pw {
		return pw
	}
	if sSame, pSame := s.track == curTrack, pick.track == curTrack; sSame != pSame {
		return sSame
	}
	if d, pd := s.end-s.start, pick.end-pick.start; d != pd {
		return d > pd
	}
	return s.track < pick.track
}

// byEnd copies the phase spans sorted by end time, truncated ones clamped
// to zero length so a rank that died mid-phase cannot anchor the walk.
func byEnd(phases []span) []span {
	out := make([]span, len(phases))
	for i, s := range phases {
		if s.end < s.start {
			s.end = s.start
		}
		out[i] = s
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].end != out[j].end {
			return out[i].end < out[j].end
		}
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].track < out[j].track
	})
	return out
}

// extract computes the critical path of the traced run from its decoded
// phase spans. It needs at least one; untraced or span-free runs return an
// error.
func extract(phases []span) (Path, error) {
	spans := byEnd(phases)
	if len(spans) == 0 {
		return Path{}, fmt.Errorf("report: no phase spans in trace")
	}
	// Anchor: the positive-duration span that ends last — zero-length spans
	// (clamped truncations from dead ranks) cannot bound the run. Among
	// ties the longest (it bounds more of the run), then lexicographically
	// first track for determinism.
	anchorAt := -1
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].end > spans[i].start {
			anchorAt = i
			break
		}
	}
	if anchorAt < 0 {
		return Path{}, fmt.Errorf("report: no positive-duration phase spans in trace")
	}
	last := spans[anchorAt]
	for i := anchorAt - 1; i >= 0; i-- {
		s := spans[i]
		if s.end < last.end-tol(last.end) {
			break
		}
		if d, ld := s.end-s.start, last.end-last.start; d > ld || (d == ld && s.track < last.track) {
			last = s
		}
	}
	var segs []Segment
	cur := last
	segs = append(segs, Segment{Track: cur.track, Name: cur.phase.String(), Start: cur.start, End: cur.end, Stage: cur.stage})
	cursor := cur.start
	for {
		// Candidates ending at the cursor. spans is sorted by end; binary
		// search the window [cursor-tol, cursor+tol].
		eps := tol(cursor)
		lo := sort.Search(len(spans), func(i int) bool { return spans[i].end >= cursor-eps })
		hi := sort.Search(len(spans), func(i int) bool { return spans[i].end > cursor+eps })
		var pick *span
		for i := lo; i < hi; i++ {
			s := spans[i]
			if s.start >= cursor-eps { // no progress: zero-length at cursor
				continue
			}
			if pick == nil {
				c := s
				pick = &c
				continue
			}
			// A wait span is the symptom of blocking, never its cause:
			// any busy span ending here outranks it. Among equals, prefer
			// staying on the current track (continuous busy chain), then
			// the longest releasing span, then track order.
			if better(s, *pick, cur.track) {
				c := s
				pick = &c
			}
		}
		if pick == nil {
			// Nothing ends at the cursor: either the chain origin, or a gap
			// to bridge with a synthetic blocked segment.
			if lo == 0 {
				break
			}
			prev := spans[lo-1] // latest span ending strictly before cursor
			segs = append(segs, Segment{Track: cur.track, Name: BlockedName, Start: prev.end, End: cursor, Stage: -1})
			cursor = prev.end
			continue
		}
		cur = *pick
		segs = append(segs, Segment{Track: cur.track, Name: cur.phase.String(), Start: cur.start, End: cur.end, Stage: cur.stage})
		cursor = cur.start
	}
	// Reverse into increasing time order and seal the tiling: each
	// segment's end must be the next segment's start.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	for i := 1; i < len(segs); i++ {
		segs[i-1].End = segs[i].Start
	}
	return Path{Start: segs[0].Start, End: segs[len(segs)-1].End, Segments: segs}, nil
}

// StageOverlap is the hidden-I/O accounting of one pipeline stage.
type StageOverlap struct {
	Stage      int     `json:"stage"`
	IOBusy     float64 `json:"io_busy"`    // union busy time of the stage's read+comm spans
	Hidden     float64 `json:"hidden"`     // part overlapped with local analysis
	Efficiency float64 `json:"efficiency"` // Hidden / IOBusy (0 when idle)
}

// stageOverlaps computes, per stage of the §4.2 multi-stage pipeline, how
// much of the I/O processors' stage-tagged read+comm activity proceeded
// concurrently with local analysis. Stages are discovered from the trace;
// runs whose I/O spans carry no stage tags return nil.
func stageOverlaps(phases []span) []StageOverlap {
	perStage := map[int][]metrics.Span{}
	var compute []metrics.Span
	for _, s := range phases {
		switch {
		case s.phase == metrics.PhaseCompute && strings.HasPrefix(s.track, metrics.ComputePrefix):
			compute = append(compute, metrics.Span{Start: s.start, End: s.end})
		case (s.phase == metrics.PhaseRead || s.phase == metrics.PhaseComm) && s.stage >= 0 &&
			strings.HasPrefix(s.track, metrics.IOPrefix):
			perStage[s.stage] = append(perStage[s.stage], metrics.Span{Start: s.start, End: s.end})
		}
	}
	if len(perStage) == 0 {
		return nil
	}
	cp := metrics.UnionSpans(compute)
	stages := make([]int, 0, len(perStage))
	for s := range perStage {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	out := make([]StageOverlap, 0, len(stages))
	for _, s := range stages {
		io := metrics.UnionSpans(perStage[s])
		busy := metrics.SpanTotal(io)
		hidden := metrics.OverlapDuration(io, cp)
		if hidden > busy { // clamp: accounting noise must not report >100%
			hidden = busy
		}
		so := StageOverlap{Stage: s, IOBusy: busy, Hidden: hidden}
		if busy > 0 {
			so.Efficiency = hidden / busy
		}
		out = append(out, so)
	}
	return out
}

// PipelineEfficiency reduces the per-stage accounting to the §4.2 ideal:
// stage 0 fills the pipeline and is unavoidably exposed; stages ≥ 1
// should be fully hidden. It returns the hidden share of the stage-≥1 I/O
// busy time (1 when there are no such stages — a single-stage run has no
// pipeline to be inefficient).
func PipelineEfficiency(stages []StageOverlap) float64 {
	var busy, hidden float64
	for _, s := range stages {
		if s.Stage == 0 {
			continue
		}
		busy += s.IOBusy
		hidden += s.Hidden
	}
	if busy == 0 {
		return 1
	}
	return hidden / busy
}
