// Conformance bookkeeping the plan checker owns and the monitor reports:
// matched counts count matches, incomplete tracks come out in name order,
// and the wire divergences keep their wording.

package monitor_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"senkf/internal/core"
	"senkf/internal/metrics"
	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// TestWrongSpanIsNotConformant feeds TestDivergenceOnWrongSpan's one wrong
// span: it arrived, but it does not match the plan, so no span conforms.
func TestWrongSpanIsNotConformant(t *testing.T) {
	m := monitor.New(monitor.Options{})
	m.BeginRun(compiled(t))
	m.Emit(trace.Event{Track: "comp/x0y0", Cat: trace.CatPhase, Ph: trace.PhaseSpan,
		Name: metrics.PhaseCompute.String(), Ts: 0, Dur: 0.1,
		Args: []trace.Arg{{Key: trace.ArgStage, Val: 2.0}}})
	st := m.Status()
	if st.Spans != 1 || st.Conformance.DivergenceCount != 1 {
		t.Fatalf("spans %d, divergences %v", st.Spans, st.Conformance.Divergences)
	}
	if got := st.Conformance.MatchedSpans; got != 0 {
		t.Errorf("MatchedSpans = %d after one wrong span, want 0", got)
	}
}

// TestIncompleteTracksInNameOrder runs 20 eventless rounds on one monitor:
// every round reports the same incomplete-track list, sorted, and the
// first-divergence incident names its first entry.
func TestIncompleteTracksInNameOrder(t *testing.T) {
	m := monitor.New(monitor.Options{})
	var first []string
	for round := 0; round < 20; round++ {
		m.BeginRun(compiled(t))
		if err := m.EndRun(nil); err != nil {
			t.Fatal(err)
		}
		st := m.Status()
		got := st.Conformance.Divergences
		if round == 0 {
			first = got
			if len(got) == 0 || !sort.StringsAreSorted(got) {
				t.Fatalf("divergences not in name order: %q", got)
			}
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("round %d: %q\nround 0: %q", round, got, first)
		}
		if inc := st.Incidents[len(st.Incidents)-1]; inc.Kind != "divergence" || inc.Detail != first[0] {
			t.Fatalf("round %d: first-divergence incident %+v, want %q", round, inc, first[0])
		}
	}
}

// TestWireDivergenceTexts pins the wording of the four wire divergence
// classes, in the order EndRun reports them.
func TestWireDivergenceTexts(t *testing.T) {
	cp := compiled(t)
	wc := wire.NewCollector()
	m := monitor.New(monitor.Options{Wire: wc})
	m.BeginRun(cp)
	wc.BeginMessages(cp)
	send := func(k plan.EdgeKey, msgs, bytes int64) {
		for i := int64(0); i < msgs; i++ {
			wc.OnMessage(k.Src, k.Dst, cp.Spec.Tag(k.Stage, 0, k.Level), bytes, 0, 0, 0)
		}
	}
	over := plan.EdgeKey{Src: 8, Dst: 0}
	missing := plan.EdgeKey{Src: 8, Dst: 1}
	short := plan.EdgeKey{Src: 8, Dst: 2}
	for k, es := range plan.ExpectedEdges(cp) {
		switch k {
		case over:
			send(k, es.Msgs+1, es.Bytes/es.Msgs)
		case missing:
		case short:
			send(k, es.Msgs-1, es.Bytes/es.Msgs)
		default:
			send(k, es.Msgs, es.Bytes/es.Msgs)
		}
	}
	send(plan.EdgeKey{Src: 8, Dst: 4}, 1, 100) // a reader of row 0 feeding row 1
	if err := m.EndRun(nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range m.Status().Conformance.Divergences {
		if strings.Contains(d, "wire edge") {
			got = append(got, d)
		}
	}
	want := []string{
		"unexpected wire edge 8->4/s0/l0: 100 bytes outside the plan's comm matrix",
		"wire edge 8->0/s0/l0 overflow: 11 msgs/3256 bytes exceed planned 10 msgs/2960 bytes",
		"wire edge 8->1/s0/l0 missing: planned 10 msgs/3600 bytes, saw none",
		"wire edge 8->2/s0/l0 short: 9 msgs/3240 bytes of planned 10 msgs/3600 bytes",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire divergences:\n got %q\nwant %q", got, want)
	}
}

// TestWireMsgsCountStageDataOnly: on a clean real wired run, /status's
// wire.msgs is the plan's stage-data message count, like wire.bytes and
// wire.json; the collectives and result gather are other_msgs.
func TestWireMsgsCountStageDataOnly(t *testing.T) {
	p, dec := realProblem(t)
	pl := core.Plan{Dec: dec, L: 3, NCg: 2}
	cp, err := plan.Compile(pl.Spec(p.Cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewCollector()
	m := monitor.New(monitor.Options{Wire: wc})
	defer m.Close()
	p.Tr = trace.New(nil, m.Tee(trace.NewBuffer()))
	p.Obs = m
	p.Msgs = wc
	if _, err := core.RunSEnKF(p, pl); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Wire == nil || st.Conformance.DivergenceCount != 0 {
		t.Fatalf("wire %+v, divergences %v", st.Wire, st.Conformance.Divergences)
	}
	want := plan.ExpectedEdges(cp).Totals()
	if st.Wire.Msgs != want.Msgs || st.Wire.Bytes != want.Bytes {
		t.Errorf("wire status %d msgs/%d bytes, plan %d msgs/%d bytes", st.Wire.Msgs, st.Wire.Bytes, want.Msgs, want.Bytes)
	}
	if st.Wire.OtherMsgs == 0 {
		t.Error("no collective or gather traffic counted as other")
	}
}
