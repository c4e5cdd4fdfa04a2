// Package metrics is the vocabulary and arithmetic of the paper's evaluation
// quantities: the phases a processor spends time in (file reading,
// communication, local analysis, waiting), phase breakdowns per processor
// class (Figure 9), and the span algebra behind the share of I/O and
// communication hidden behind local computation (Figure 11). It keeps no
// record of a run: the real substrate's phases are spans on the trace
// stream (trace.PhaseBreakdown folds them), the simulator's a ledger private
// to internal/schedule.
package metrics

import (
	"fmt"
	"sort"
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

// Mean divides every phase by n processors — the per-processor averages
// Figure 9 plots (zero when n is 0).
func (b Breakdown) Mean(n int) Breakdown {
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
// Figure 11 hidden-I/O accounting cannot be inflated by failed ranks. ivs
// is left as it was.
func UnionSpans(ivs []Span) []Span {
	if len(ivs) == 0 {
		return nil
	}
	return UnionInPlace(append([]Span(nil), ivs...))
}

// UnionInPlace is UnionSpans for a caller that owns ivs and no longer needs
// it: ivs is clamped, sorted and merged where it lies, and the disjoint
// spans are returned as its prefix.
func UnionInPlace(ivs []Span) []Span {
	if len(ivs) == 0 {
		return nil
	}
	for i := range ivs {
		if ivs[i].End < ivs[i].Start {
			ivs[i].End = ivs[i].Start
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	out := ivs[:1]
	for _, s := range ivs[1:] {
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
