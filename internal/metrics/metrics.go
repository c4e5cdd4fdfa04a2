// Package metrics records per-processor phase timings (file reading,
// communication, local analysis, waiting) as time intervals and derives the
// quantities the paper's evaluation plots: phase breakdowns per processor
// class (Figure 9), the share of I/O and communication hidden behind local
// computation (Figure 11), and I/O-vs-compute percentages (Figure 1).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Phase classifies what a processor spends time on.
type Phase int

const (
	// PhaseRead is time spent reading from the (simulated or real) file
	// system, including queueing for disk resources.
	PhaseRead Phase = iota
	// PhaseComm is time spent sending or receiving messages.
	PhaseComm
	// PhaseCompute is local analysis time.
	PhaseCompute
	// PhaseWait is idle time waiting for data to arrive.
	PhaseWait
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseRead:
		return "read"
	case PhaseComm:
		return "comm"
	case PhaseCompute:
		return "compute"
	case PhaseWait:
		return "wait"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Interval is one recorded activity of one processor.
type Interval struct {
	Phase      Phase
	Start, End float64
}

// Recorder accumulates intervals per processor. It is safe for concurrent
// use (the real executions record from many goroutines).
type Recorder struct {
	mu   sync.Mutex
	byID map[string][]Interval
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byID: map[string][]Interval{}}
}

// Record adds an interval for the named processor. Degenerate intervals
// (End <= Start) are dropped.
func (r *Recorder) Record(proc string, ph Phase, start, end float64) {
	if end <= start {
		return
	}
	r.mu.Lock()
	r.byID[proc] = append(r.byID[proc], Interval{Phase: ph, Start: start, End: end})
	r.mu.Unlock()
}

// Procs returns the recorded processor names with the given prefix, sorted.
func (r *Recorder) Procs(prefix string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id := range r.byID {
		if strings.HasPrefix(id, prefix) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Breakdown is the total time per phase across a set of processors.
type Breakdown struct {
	Read, Comm, Compute, Wait float64
}

// Add accumulates d seconds into the given phase.
func (b *Breakdown) Add(p Phase, d float64) {
	switch p {
	case PhaseRead:
		b.Read += d
	case PhaseComm:
		b.Comm += d
	case PhaseCompute:
		b.Compute += d
	case PhaseWait:
		b.Wait += d
	}
}

// Get returns the accumulated seconds of one phase.
func (b Breakdown) Get(p Phase) float64 {
	switch p {
	case PhaseRead:
		return b.Read
	case PhaseComm:
		return b.Comm
	case PhaseCompute:
		return b.Compute
	case PhaseWait:
		return b.Wait
	default:
		return 0
	}
}

// Total returns the sum over all phases.
func (b Breakdown) Total() float64 { return b.Read + b.Comm + b.Compute + b.Wait }

// Percent returns the share of phase p in the total (0 when empty).
func (b Breakdown) Percent(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * b.Get(p) / t
}

// Breakdown sums the phase durations of every processor whose name starts
// with prefix, in name order — so the sums are the same floats on every run,
// not a map-order permutation of them.
func (r *Recorder) Breakdown(prefix string) Breakdown {
	ids := r.Procs(prefix)
	r.mu.Lock()
	defer r.mu.Unlock()
	var b Breakdown
	for _, id := range ids {
		for _, iv := range r.byID[id] {
			b.Add(iv.Phase, iv.End-iv.Start)
		}
	}
	return b
}

// MeanBreakdown divides the prefix breakdown by the number of matching
// processors, yielding the per-processor averages Figure 9 plots.
func (r *Recorder) MeanBreakdown(prefix string) Breakdown {
	n := len(r.Procs(prefix))
	b := r.Breakdown(prefix)
	if n == 0 {
		return Breakdown{}
	}
	b.Read /= float64(n)
	b.Comm /= float64(n)
	b.Compute /= float64(n)
	b.Wait /= float64(n)
	return b
}

// Span is a merged busy interval.
type Span struct{ Start, End float64 }

// UnionSpans merges possibly-overlapping intervals into disjoint spans.
// Truncated intervals — End before Start, as left behind by ranks that
// died mid-phase in a resilient run — are clamped to zero length at their
// start instead of being allowed to swallow neighbouring spans, so the
// Figure 11 hidden-I/O accounting cannot be inflated by failed ranks.
func UnionSpans(ivs []Span) []Span {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]Span(nil), ivs...)
	for i := range sorted {
		if sorted[i].End < sorted[i].Start {
			sorted[i].End = sorted[i].Start
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []Span{sorted[0]}
	for _, s := range sorted[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Spans returns the union of the intervals of the given phases across
// processors matching prefix.
func (r *Recorder) Spans(prefix string, phases ...Phase) []Span {
	want := map[Phase]bool{}
	for _, p := range phases {
		want[p] = true
	}
	r.mu.Lock()
	var raw []Span
	for id, ivs := range r.byID {
		if !strings.HasPrefix(id, prefix) {
			continue
		}
		for _, iv := range ivs {
			if want[iv.Phase] {
				raw = append(raw, Span{Start: iv.Start, End: iv.End})
			}
		}
	}
	r.mu.Unlock()
	return UnionSpans(raw)
}

// OverlapDuration returns the total time during which both span sets are
// simultaneously active.
func OverlapDuration(a, b []Span) float64 {
	var total float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}

// SpanTotal returns the summed duration of disjoint spans.
func SpanTotal(s []Span) float64 {
	var t float64
	for _, sp := range s {
		t += sp.End - sp.Start
	}
	return t
}
