package main

import (
	"sync"
	"time"

	"senkf/internal/metrics"
)

// A span is one timed interval of a traced run: an op, or a call the op
// made into a layer. Times are seconds since the recorder was made.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"` // index of the span that caused it, -1 for an op
	Op     int     `json:"op"`     // the op the span belongs to
}

// spanRecorder keeps the spans of a traced run in memory; they are written
// out when the run ends.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// opSpans is what a traced op records under: its own root span. A nil
// *opSpans is the untraced run, where every method does nothing.
type opSpans struct {
	rec  *spanRecorder
	root int
	op   int
}

func (r *spanRecorder) beginOp(i int) *opSpans {
	return &opSpans{rec: r, root: r.begin("op", -1, i), op: i}
}

func (s *opSpans) endOp() { s.rec.end(s.root) }

func noop() {}

// child opens a span under the op and returns the function that closes it.
func (s *opSpans) child(name string) func() {
	if s == nil {
		return noop
	}
	id := s.rec.begin(name, s.root, s.op)
	return func() { s.rec.end(id) }
}

// now is the recorder's clock, for spans recorded after the fact with add.
func (s *opSpans) now() float64 { return time.Since(s.rec.t0).Seconds() }

// add records a finished child span.
func (s *opSpans) add(name string, start, end float64) {
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, span{Name: name, Start: start, End: end, Parent: s.root, Op: s.op})
	s.rec.mu.Unlock()
}

// spanTotals folds the recorded spans by name: the summed duration of the
// spans of that name, and their summed self time — duration minus the part
// of the interval that child spans cover. Children of one span may run in
// parallel (the ranks of an engine run), so coverage is the union of the
// child intervals, clipped to the parent.
func spanTotals(spans []span) (dur, self map[string]float64) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		d := s.End - s.Start
		dur[s.Name] += d
		self[s.Name] += d - coverage(spans, children[i], s.Start, s.End)
	}
	return dur, self
}

// coverage is the length of the union of the given spans inside [lo, hi].
func coverage(spans []span, ids []int, lo, hi float64) float64 {
	ivs := make([]metrics.Span, 0, len(ids))
	for _, id := range ids {
		// A child clipped to nothing ends before it starts, which
		// UnionSpans counts as empty.
		ivs = append(ivs, metrics.Span{Start: max(spans[id].Start, lo), End: min(spans[id].End, hi)})
	}
	return metrics.SpanTotal(metrics.UnionSpans(ivs))
}
