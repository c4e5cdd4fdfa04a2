package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseRead: "read", PhaseComm: "comm", PhaseCompute: "compute", PhaseWait: "wait",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase string empty")
	}
}

// Add records durations into the phase they belong to; the sums a class of
// processors is reported by (Figure 9) are these running totals.
func TestRecordAndBreakdown(t *testing.T) {
	var io, cp Breakdown
	io.Add(PhaseRead, 2)
	io.Add(PhaseComm, 1)
	io.Add(PhaseRead, 1)
	cp.Add(PhaseCompute, 5)
	cp.Add(PhaseWait, 1)
	if io.Read != 3 || io.Comm != 1 || io.Compute != 0 || io.Wait != 0 {
		t.Errorf("io breakdown %+v", io)
	}
	if cp.Compute != 5 || cp.Wait != 1 {
		t.Errorf("cp breakdown %+v", cp)
	}
	if io.Total()+cp.Total() != 10 {
		t.Errorf("total %g, want 10", io.Total()+cp.Total())
	}
	io.Add(Phase(9), 7)
	if io.Total() != 4 {
		t.Errorf("unknown phase added to the total: %+v", io)
	}
}

func TestPercentAndGet(t *testing.T) {
	var b Breakdown
	b.Add(PhaseRead, 1)
	b.Add(PhaseCompute, 3)
	if p := b.Percent(PhaseRead); math.Abs(p-25) > 1e-12 {
		t.Errorf("read percent %g, want 25", p)
	}
	if p := b.Percent(PhaseCompute); math.Abs(p-75) > 1e-12 {
		t.Errorf("compute percent %g, want 75", p)
	}
	if (Breakdown{}).Percent(PhaseRead) != 0 {
		t.Error("empty breakdown percent should be 0")
	}
	if b.Get(Phase(9)) != 0 {
		t.Error("unknown phase Get should be 0")
	}
}

func TestProcsAndMeanBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(PhaseRead, 4)
	b.Add(PhaseRead, 2)
	b.Add(PhaseWait, 1)
	if mean := b.Mean(2); mean.Read != 3 || mean.Wait != 0.5 || mean.Comm != 0 {
		t.Errorf("mean over 2 procs %+v", mean)
	}
	if b.Mean(0) != (Breakdown{}) {
		t.Error("mean of no procs should be zero")
	}
}

func TestUnionSpans(t *testing.T) {
	got := UnionSpans([]Span{{3, 4}, {0, 2}, {1, 3.5}, {6, 7}})
	want := []Span{{0, 4}, {6, 7}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if UnionSpans(nil) != nil {
		t.Error("empty union should be nil")
	}
}

func TestOverlapDuration(t *testing.T) {
	a := []Span{{0, 2}, {4, 6}}
	b := []Span{{1, 5}}
	if d := OverlapDuration(a, b); math.Abs(d-2) > 1e-12 {
		t.Errorf("overlap %g, want 2", d)
	}
	if d := OverlapDuration(a, nil); d != 0 {
		t.Errorf("overlap with empty = %g", d)
	}
	disjoint := []Span{{10, 11}}
	if d := OverlapDuration(a, disjoint); d != 0 {
		t.Errorf("disjoint overlap = %g", d)
	}
}

func TestOverlapScenarioLikeFig11(t *testing.T) {
	// I/O happens at [0,1] (exposed) and [1,9] (hidden behind compute), read
	// by two ranks whose spans touch; a zero-length span adds nothing.
	io := UnionSpans([]Span{{0, 4}, {4, 9}, {9.5, 9.5}})
	cp := UnionSpans([]Span{{1, 10}})
	overlapped := OverlapDuration(io, cp)
	if math.Abs(overlapped-8) > 1e-12 {
		t.Errorf("overlapped = %g, want 8", overlapped)
	}
	if busy := SpanTotal(io); busy != 9 {
		t.Errorf("io busy = %g, want 9", busy)
	}
}

func TestQuickUnionSpansInvariants(t *testing.T) {
	f := func(raw []struct{ A, B uint8 }) bool {
		var spans []Span
		var total float64
		for _, r := range raw {
			lo, hi := float64(r.A), float64(r.A)+float64(r.B%16)+0.5
			spans = append(spans, Span{lo, hi})
			total += hi - lo
		}
		u := UnionSpans(spans)
		// Disjoint, sorted, and total does not exceed raw sum.
		for i := 1; i < len(u); i++ {
			if u[i].Start <= u[i-1].End {
				return false
			}
		}
		return SpanTotal(u) <= total+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
