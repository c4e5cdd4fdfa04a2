package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/plan"
)

func compiled(t *testing.T, levels int) *plan.Compiled {
	t.Helper()
	m, err := grid.NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDecomposition(m, 4, 2, grid.Radius{Xi: 4, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.SEnKF(d, 8, 2, 2)
	if levels > 1 {
		s = s.WithLevels(levels)
	}
	c, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCollectorFoldsMessagesOntoEdges drives OnMessage with plan-space and
// out-of-space tags and checks the edge/other split, the latency clamp and
// the queue-depth maximum.
func TestCollectorFoldsMessagesOntoEdges(t *testing.T) {
	cp := compiled(t, 3)
	c := NewCollector()
	c.BeginMessages(cp)

	tag := cp.Spec.Tag(1, 5, 2)
	c.OnMessage(0, 3, tag, 800, 1.0, 1.5, 4)
	c.OnMessage(0, 3, tag, 800, 2.0, 2.25, 1)
	c.OnMessage(2, 3, -1, 64, 0, 0, 0)    // collective
	c.OnMessage(2, 3, 1<<20, 64, 3, 2, 0) // result gather, clock skew

	m := c.Matrix()
	k := plan.EdgeKey{Src: 0, Dst: 3, Stage: 1, Level: 2}
	if got := m[k]; got != (plan.EdgeStats{Msgs: 2, Bytes: 1600}) {
		t.Errorf("edge %s = %+v, want 2 msgs / 1600 bytes", k, got)
	}
	if len(m) != 1 {
		t.Errorf("matrix has %d edges, want 1", len(m))
	}
	om, ob := c.Other()
	if om != 2 || ob != 128 {
		t.Errorf("other = %d msgs / %d bytes, want 2 / 128", om, ob)
	}

	s := c.Summary(0)
	if s.Msgs != 2 || s.Bytes != 1600 || s.OtherMsgs != 2 {
		t.Errorf("summary totals %+v, want 2 stage msgs / 1600 bytes / 2 other", s)
	}
	if s.MaxLatency != 0.5 {
		t.Errorf("max latency %g, want 0.5", s.MaxLatency)
	}
	// Negative latency (skewed clocks) clamps to zero rather than going
	// below it: mean over 4 msgs is (0.5+0.25+0+0)/4.
	if want := 0.75 / 4; math.Abs(s.MeanLatency-want) > 1e-12 {
		t.Errorf("mean latency %g, want %g", s.MeanLatency, want)
	}
	if s.MaxQueueDepth != 4 {
		t.Errorf("max queue depth %d, want 4", s.MaxQueueDepth)
	}
	if s.Algorithm != string(cp.Spec.Algorithm) {
		t.Errorf("summary algorithm %q, want %q", s.Algorithm, cp.Spec.Algorithm)
	}
}

// TestCollectorWithoutPlanBucketsEverythingAsOther checks that a collector
// that never saw BeginMessages cannot invert tags and attributes all
// traffic to the other bucket.
func TestCollectorWithoutPlanBucketsEverythingAsOther(t *testing.T) {
	c := NewCollector()
	c.OnMessage(0, 1, 3, 100, 0, 0, 0)
	if len(c.Matrix()) != 0 {
		t.Error("plan-less collector recorded a plan edge")
	}
	if om, ob := c.Other(); om != 1 || ob != 100 {
		t.Errorf("other = %d / %d, want 1 / 100", om, ob)
	}
}

// TestCollectorOSTAttribution drives OnRead and checks the per-OST
// accumulation, utilization and fault counts in the summary.
func TestCollectorOSTAttribution(t *testing.T) {
	c := NewCollector()
	// OST 1: two reads over [0, 4], serving 1s each => util 0.5.
	c.OnRead(1, 1000, 0, 0, 1, false, false)
	c.OnRead(1, 1000, 2, 1, 1, true, false)
	// OST 7: one stalled read flagged as outage.
	c.OnRead(7, 500, 0, 5, 1, false, true)

	s := c.Summary(0)
	if len(s.OSTs) != 2 {
		t.Fatalf("summary has %d OSTs, want 2", len(s.OSTs))
	}
	o1, o7 := s.OSTs[0], s.OSTs[1]
	if o1.OST != 1 || o7.OST != 7 {
		t.Fatalf("OST order %d, %d; want 1, 7", o1.OST, o7.OST)
	}
	if o1.Bytes != 2000 || o7.Bytes != 500 {
		t.Errorf("ost bytes %g and %g, want 2000 and 500", o1.Bytes, o7.Bytes)
	}
	if o1.Reads != 2 || o1.Degraded != 1 || o1.Outage != 0 {
		t.Errorf("ost1 = %+v, want 2 reads, 1 degraded", o1)
	}
	if math.Abs(o1.Util-0.5) > 1e-12 {
		t.Errorf("ost1 util %g, want 0.5", o1.Util)
	}
	if o1.Wait != 1 || o1.Service != 2 {
		t.Errorf("ost1 wait/service = %g/%g, want 1/2", o1.Wait, o1.Service)
	}
	if o7.Outage != 1 {
		t.Errorf("ost7 outage count %d, want 1", o7.Outage)
	}
	if s.PeakOSTUtil < 0.5 {
		t.Errorf("peak OST util %g, want >= 0.5", s.PeakOSTUtil)
	}
	if len(o1.Timeline) != TimelineBins {
		t.Errorf("ost1 timeline has %d bins, want %d", len(o1.Timeline), TimelineBins)
	}
}

// TestTimelineBinsServiceIntervals checks the utilization binning: one
// interval covering exactly the first half of the window fills the first
// half of the bins.
func TestTimelineBinsServiceIntervals(t *testing.T) {
	out := timeline([]interval{{t0: 0, t1: 5}}, 0, 10, 10)
	for b, v := range out {
		want := 0.0
		if b < 5 {
			want = 1.0
		}
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("bin %d = %g, want %g", b, v, want)
		}
	}
	// Out-of-window intervals and empty windows stay in range.
	out = timeline([]interval{{t0: -5, t1: 50}}, 0, 10, 4)
	for b, v := range out {
		if v < 0 || v > 1 {
			t.Errorf("bin %d = %g outside [0, 1]", b, v)
		}
	}
}

// TestSummaryWriteTable smoke-tests the text rendering: totals, top-edge
// rows and the OST sparkline all appear.
func TestSummaryWriteTable(t *testing.T) {
	cp := compiled(t, 1)
	c := NewCollector()
	c.BeginMessages(cp)
	c.OnMessage(0, 2, cp.Spec.Tag(0, 1, 0), 1000, 0, 0.1, 1)
	c.OnRead(0, 4096, 0, 0.5, 1, false, true)

	var buf bytes.Buffer
	if err := c.Summary(0).WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"wire summary", "top edges", "0->2/s0/l0", "OSTs", "1 outage"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryTopNAndSkew checks edge trimming and the per-destination skew
// figure: all traffic on one destination out of two gives skew 2.
func TestSummaryTopNAndSkew(t *testing.T) {
	cp := compiled(t, 1)
	c := NewCollector()
	c.BeginMessages(cp)
	tag := cp.Spec.Tag(0, 0, 0)
	c.OnMessage(0, 1, tag, 300, 0, 0, 0)
	c.OnMessage(0, 2, tag, 100, 0, 0, 0)
	c.OnMessage(1, 2, tag, 200, 0, 0, 0)

	s := c.Summary(2)
	if len(s.TopEdges) != 2 {
		t.Fatalf("topN=2 kept %d edges", len(s.TopEdges))
	}
	if s.TopEdges[0].Bytes < s.TopEdges[1].Bytes {
		t.Error("top edges not sorted by bytes descending")
	}
	// dst 1 carries 300, dst 2 carries 300: perfectly balanced, skew 1.
	if math.Abs(s.Skew-1) > 1e-12 {
		t.Errorf("skew %g, want 1 for balanced destinations", s.Skew)
	}

	c2 := NewCollector()
	c2.BeginMessages(cp)
	c2.OnMessage(0, 1, tag, 300, 0, 0, 0)
	c2.OnMessage(0, 2, tag, 100, 0, 0, 0)
	// dst 1: 300 of 400 total over 2 dsts => skew 1.5.
	if s2 := c2.Summary(0); math.Abs(s2.Skew-1.5) > 1e-12 {
		t.Errorf("skew %g, want 1.5 for a 3:1 imbalance", s2.Skew)
	}
}
