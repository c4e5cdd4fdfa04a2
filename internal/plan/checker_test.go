package plan

import (
	"reflect"
	"sort"
	"testing"
)

// TestCheckerDivergenceTexts pins the wording of every structural
// divergence class: the live monitor prints these strings as they are.
func TestCheckerDivergenceTexts(t *testing.T) {
	c, err := Compile(SEnKF(dec(t, 24, 12, 4, 2, 2, 2), 20, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	const comp = "comp/x0y0" // spans compute 0, 1, 2; releases 0, 1, 2
	compute := func(stage int) DAGNode { return DAGNode{Phase: "compute", Stage: stage} }
	type event struct {
		track string
		span  *DAGNode // nil: a release instant of stage ready
		ready int
	}
	span := func(stage int) event { n := compute(stage); return event{track: comp, span: &n} }
	release := func(stage int) event { return event{track: comp, ready: stage} }
	for _, tc := range []struct {
		name   string
		events []event
		close  bool // also close, with every other track exempt
		want   []string
	}{
		{"unexpected track", []event{{track: "comp/x9y9", span: &DAGNode{Phase: "compute", Stage: -1}}, {track: "comp/x9y9", ready: 0}},
			false, []string{"unexpected track comp/x9y9 (not in the compiled plan)"}},
		{"extra span", []event{span(0), span(1), span(2), span(2)},
			false, []string{"track comp/x0y0: extra span {compute 2} beyond the 3 planned"}},
		{"wrong span", []event{span(2)},
			false, []string{"track comp/x0y0 span 0: got {compute 2}, plan says {compute 0}"}},
		{"extra release", []event{release(0), release(1), release(2), release(2)},
			false, []string{"track comp/x0y0: extra release instant (stage 2) beyond the 3 planned"}},
		{"wrong release", []event{release(1)},
			false, []string{"track comp/x0y0 release 0: got stage 1, plan says stage 0"}},
		{"incomplete spans", []event{release(0), release(1), release(2), span(0)},
			true, []string{"track comp/x0y0 incomplete: 1 of 3 busy spans"}},
		{"incomplete releases", []event{span(0), span(1), span(2), release(0)},
			true, []string{"track comp/x0y0 incomplete: 1 of 3 release instants"}},
	} {
		k := NewChecker(c)
		var got []string
		for _, ev := range tc.events {
			d := ""
			if ev.span != nil {
				d = k.Span(ev.track, *ev.span)
			} else {
				d = k.Ready(ev.track, ev.ready)
			}
			if d != "" {
				got = append(got, d)
			}
		}
		if tc.close {
			exempt := map[string]bool{}
			for _, name := range k.Tracks() {
				exempt[name] = name != comp
			}
			got = append(got, k.Close(exempt)...)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestCheckerCountsMatchesNotArrivals: a wrong span moves the cursor on
// but does not count as matched.
func TestCheckerCountsMatchesNotArrivals(t *testing.T) {
	c, err := Compile(SEnKF(dec(t, 24, 12, 4, 2, 2, 2), 20, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	k := NewChecker(c)
	if d := k.Span("comp/x0y0", DAGNode{Phase: "compute", Stage: 2}); d == "" {
		t.Fatal("wrong span not reported")
	}
	k.Ready("comp/x0y0", 0)
	if spans, ready := k.Matched("comp/x0y0"); spans != 0 || ready != 1 {
		t.Errorf("matched %d spans, %d releases; want 0, 1", spans, ready)
	}
	if next, ok := k.Next("comp/x0y0"); !ok || next != (DAGNode{Phase: "compute", Stage: 1}) {
		t.Errorf("next = %v, %v; want {compute 1}", next, ok)
	}
	if exp := k.Expected("comp/x0y0"); len(exp.Spans) != 3 || len(exp.Ready) != 3 {
		t.Errorf("expected chain %+v", exp)
	}
	if exp := k.Expected("comp/x9y9"); exp.Spans != nil || exp.Ready != nil {
		t.Error("an unplanned track has an expected chain")
	}
	// A nil checker knows no plan: it reports nothing and holds nothing.
	var none Checker
	if d := none.Span("comp/x0y0", DAGNode{}) + none.Ready("comp/x0y0", 0); d != "" || none.Close(nil) != nil || len(none.Tracks()) != 0 {
		t.Errorf("nil checker reported %q", d)
	}
	// An eventless run is incomplete on every track, reported in name order.
	ds := NewChecker(c).Close(nil)
	if len(ds) != 2*c.NumCompute()+len(c.IO) || !sort.StringsAreSorted(ds) {
		t.Errorf("eventless close: %q", ds)
	}
}

// TestEdgeMatrixCompare sorts each kind of difference into its class, in
// key order; an edge with more messages but fewer bytes is over and short.
func TestEdgeMatrixCompare(t *testing.T) {
	key := func(src int) EdgeKey { return EdgeKey{Src: src, Dst: 9} }
	want := EdgeMatrix{key(1): {1, 10}, key(2): {2, 20}, key(3): {3, 30}, key(4): {4, 40}, key(5): {5, 50}}
	got := EdgeMatrix{key(0): {1, 1}, key(1): {1, 10}, key(2): {3, 20}, key(4): {3, 40}, key(5): {6, 49}, key(6): {1, 1}}
	u, o, m, s := got.Compare(want)
	for _, c := range []struct {
		class     string
		got, want []EdgeKey
	}{
		{"unexpected", u, []EdgeKey{key(0), key(6)}},
		{"over", o, []EdgeKey{key(2), key(5)}},
		{"missing", m, []EdgeKey{key(3)}},
		{"short", s, []EdgeKey{key(4), key(5)}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %v, want %v", c.class, c.got, c.want)
		}
	}
	if err := want.Diff(got); err == nil {
		t.Error("Diff reports no difference")
	}
	if u, o, m, s := want.Compare(want.Clone()); u != nil || o != nil || m != nil || s != nil || want.Diff(want.Clone()) != nil {
		t.Error("a matrix differs from its clone")
	}
}
