// Structural phase-span DAGs: the substrate-independent shape of a run.
//
// Both substrates emit, per processor track, an ordered chain of phase
// spans (read/comm on I/O tracks, compute on compute tracks) plus the
// helper-thread release instants ("ready", one per stage on each compute
// track of a staged run). Wall-clock and virtual timings differ between
// substrates — and wait spans exist only where a substrate actually
// blocked — but the busy-span chains and release points are fully
// determined by the compiled plan. StructuralDAG extracts that shape from
// a trace; ExpectedDAG derives it from the plan itself; a Checker holds
// events to it one at a time, which is how the live monitor judges a run,
// and DiffDAG compares whole signatures through one. The observability
// suite asserts real == expected == simulated at equal geometry.

package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"senkf/internal/metrics"
	"senkf/internal/trace"
)

// DAGNode is one busy phase span in a track's chain.
type DAGNode struct {
	Phase string // "read", "comm" or "compute"
	Stage int    // stage tag, -1 when untagged
}

// TrackDAG is the structural signature of one processor track: its busy
// spans in execution order, and the stages of its helper-thread release
// ("ready") instants in emission order.
type TrackDAG struct {
	Spans []DAGNode
	Ready []int
}

// StructuralDAG reduces a trace to its per-track structural signature.
// Only the substrate-independent shape survives: phase spans on io/ and
// comp/ tracks except waits (blocking is timing, not structure), ordered
// by start time, and the "ready" release instants per compute track. The
// release-edge topology is implied: span n+1 of a track is released by
// span n, and a staged compute span is additionally released by its
// stage's "ready" instant — which the comm span of the I/O ranks feeding
// that row produced.
func StructuralDAG(events []trace.Event) map[string]*TrackDAG {
	type keyed struct {
		start float64
		seq   int // emission order breaks exact ties deterministically
		node  DAGNode
	}
	spans := map[string][]keyed{}
	out := map[string]*TrackDAG{}
	track := func(name string) *TrackDAG {
		t := out[name]
		if t == nil {
			t = &TrackDAG{}
			out[name] = t
		}
		return t
	}
	for seq, ev := range events {
		if !strings.HasPrefix(ev.Track, metrics.IOPrefix+"/") &&
			!strings.HasPrefix(ev.Track, metrics.ComputePrefix+"/") {
			continue
		}
		if ph, stage, ok := trace.PhaseOf(ev); ok && ph != metrics.PhaseWait {
			spans[ev.Track] = append(spans[ev.Track],
				keyed{start: ev.Ts, seq: seq, node: DAGNode{Phase: ph.String(), Stage: stage}})
		} else if stage, ok := trace.ReadyOf(ev); ok {
			track(ev.Track).Ready = append(track(ev.Track).Ready, stage)
		}
	}
	for name, ks := range spans {
		sort.SliceStable(ks, func(a, b int) bool {
			if ks[a].start != ks[b].start {
				return ks[a].start < ks[b].start
			}
			return ks[a].seq < ks[b].seq
		})
		t := track(name)
		t.Spans = make([]DAGNode, len(ks))
		for i, k := range ks {
			t.Spans[i] = k.node
		}
	}
	return out
}

// ExpectedDAG derives the structural signature a conforming interpreter of
// this plan must produce, on either substrate. The level dimension does not
// appear: a multilevel plan has the same span/release topology as its
// single-level twin, because every read fetches all levels at once and
// every stage's per-level sends and analyses ride inside the stage's one
// comm/compute span — levels change weights, never shape.
func (c *Compiled) ExpectedDAG() map[string]*TrackDAG {
	staged := c.Staged()
	tag := func(stage int) int {
		if staged {
			return stage
		}
		return -1
	}
	out := map[string]*TrackDAG{}
	for _, r := range c.IO {
		t := &TrackDAG{}
		for _, st := range r.Stages {
			t.Spans = append(t.Spans,
				DAGNode{Phase: metrics.PhaseRead.String(), Stage: tag(st.Stage)},
				DAGNode{Phase: metrics.PhaseComm.String(), Stage: tag(st.Stage)})
		}
		out[r.Name] = t
	}
	for _, r := range c.Compute {
		t := &TrackDAG{}
		for _, st := range r.Stages {
			for i := 0; st.Expect == 0 && i < len(r.Self.Members); i++ {
				t.Spans = append(t.Spans, DAGNode{Phase: metrics.PhaseRead.String(), Stage: -1})
			}
			if staged && st.Expect > 0 {
				t.Ready = append(t.Ready, st.Stage)
			}
			t.Spans = append(t.Spans, DAGNode{Phase: metrics.PhaseCompute.String(), Stage: tag(st.Stage)})
		}
		out[r.Name] = t
	}
	return out
}

// DiffDAG reports the first structural difference between two signatures,
// or nil when they are identical: same track set, same span chain per
// track, same release points. It feeds every track of a, in name order,
// to a Checker over b and then closes it.
func DiffDAG(a, b map[string]*TrackDAG) error {
	if len(a) != len(b) {
		return fmt.Errorf("plan: %d vs %d tracks", len(a), len(b))
	}
	k := newChecker(b)
	var ds []string
	for _, n := range k.Tracks() {
		ta, ok := a[n]
		if !ok {
			return fmt.Errorf("plan: track %q present in one DAG only", n)
		}
		for _, s := range ta.Spans {
			ds = append(ds, k.Span(n, s))
		}
		for _, stage := range ta.Ready {
			ds = append(ds, k.Ready(n, stage))
		}
	}
	for _, d := range append(ds, k.Close(nil)...) {
		if d != "" {
			return errors.New("plan: " + d)
		}
	}
	return nil
}

// Checker holds one run to its plan as events arrive: the streaming form
// of StructuralDAG + DiffDAG. Each track keeps one cursor for busy spans
// and one for release instants, because the real substrate's helper
// goroutine emits "ready" concurrently with the main thread's spans: only
// the per-kind order is guaranteed (spans are program order; a mailbox is
// FIFO). Span, Ready and Close word each divergence for a live reader. A
// nil Checker knows no plan and reports nothing. A Checker is not safe for
// concurrent use.
type Checker map[string]*cursor // nil for a track the plan does not know

// cursor is one planned track's position in its expected chain.
type cursor struct {
	exp                 *TrackDAG
	span, ready         int // next expected index into exp.Spans, exp.Ready
	spanHits, readyHits int // events equal to the planned node
}

// NewChecker returns a checker for one run of the compiled plan.
func NewChecker(c *Compiled) Checker { return newChecker(c.ExpectedDAG()) }

func newChecker(exp map[string]*TrackDAG) Checker {
	k := make(Checker, len(exp))
	for name, t := range exp {
		k[name] = &cursor{exp: t}
	}
	return k
}

// cursorFor returns the track's cursor, or nil and — the first time only —
// the divergence for a track the plan does not know.
func (k Checker) cursorFor(track string) (*cursor, string) {
	if cur, seen := k[track]; seen || k == nil {
		return cur, ""
	}
	k[track] = nil
	return nil, fmt.Sprintf("unexpected track %s (not in the compiled plan)", track)
}

// Span folds one busy span and returns its divergence, or "".
func (k Checker) Span(track string, got DAGNode) string {
	cur, div := k.cursorFor(track)
	if cur == nil {
		return div
	}
	i := cur.span
	cur.span++
	switch {
	case i >= len(cur.exp.Spans):
		return fmt.Sprintf("track %s: extra span %v beyond the %d planned", track, got, len(cur.exp.Spans))
	case got != cur.exp.Spans[i]:
		return fmt.Sprintf("track %s span %d: got %v, plan says %v", track, i, got, cur.exp.Spans[i])
	}
	cur.spanHits++
	return ""
}

// Ready folds one release instant of the given stage and returns its
// divergence, or "".
func (k Checker) Ready(track string, stage int) string {
	cur, div := k.cursorFor(track)
	if cur == nil {
		return div
	}
	i := cur.ready
	cur.ready++
	switch {
	case i >= len(cur.exp.Ready):
		return fmt.Sprintf("track %s: extra release instant (stage %d) beyond the %d planned", track, stage, len(cur.exp.Ready))
	case stage != cur.exp.Ready[i]:
		return fmt.Sprintf("track %s release %d: got stage %d, plan says stage %d", track, i, stage, cur.exp.Ready[i])
	}
	cur.readyHits++
	return ""
}

// Close returns, in track-name order, the divergences of planned tracks
// that have not run their full chain, skipping exempt ones (a rank
// announced dead, say). The checker stays readable afterwards.
func (k Checker) Close(exempt map[string]bool) []string {
	var out []string
	for _, name := range k.Tracks() {
		if exempt[name] {
			continue
		}
		cur := k[name]
		if cur.span < len(cur.exp.Spans) {
			out = append(out, fmt.Sprintf("track %s incomplete: %d of %d busy spans", name, cur.span, len(cur.exp.Spans)))
		}
		if cur.ready < len(cur.exp.Ready) {
			out = append(out, fmt.Sprintf("track %s incomplete: %d of %d release instants", name, cur.ready, len(cur.exp.Ready)))
		}
	}
	return out
}

// Tracks returns the planned tracks in name order.
func (k Checker) Tracks() []string {
	names := make([]string, 0, len(k))
	for name, cur := range k {
		if cur != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Expected returns a track's expected chain (empty for a track the plan
// does not know).
func (k Checker) Expected(track string) TrackDAG {
	if cur := k[track]; cur != nil {
		return *cur.exp
	}
	return TrackDAG{}
}

// Matched returns how many of the track's spans and release instants so
// far equalled the planned node at their position.
func (k Checker) Matched(track string) (spans, ready int) {
	if cur := k[track]; cur != nil {
		return cur.spanHits, cur.readyHits
	}
	return 0, 0
}

// Next returns the track's next expected busy span; ok is false once the
// chain is exhausted or for a track the plan does not know.
func (k Checker) Next(track string) (node DAGNode, ok bool) {
	if cur := k[track]; cur != nil && cur.span < len(cur.exp.Spans) {
		return cur.exp.Spans[cur.span], true
	}
	return DAGNode{}, false
}
