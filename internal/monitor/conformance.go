// Live plan conformance: each phase span and release instant goes to the
// run's plan.Checker as it arrives, and the checker's divergences become
// the monitor's. What a conforming run looks like is decided in plan
// alone; this file words the verdicts and blames plan edges, reading the
// plan's expected wire edges and each compute stage's Expect.

package monitor

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"senkf/internal/metrics"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

func (m *Monitor) divergeLocked(detail string) {
	m.divCount++
	m.reg.Inc("monitor/divergences")
	if len(m.divergences) < 32 {
		m.divergences = append(m.divergences, detail)
		if m.opts.Logger != nil {
			m.opts.Logger.Warn("monitor: plan divergence", "detail", detail)
		}
	}
	if m.divCount == 1 {
		m.incidentLocked(Incident{Kind: "divergence", Detail: detail}, true)
	}
}

// foldSpanLocked checks one busy span against the plan and feeds the
// watchdog. Wait spans are timing, not structure (plan.StructuralDAG skips
// them too), but they are exactly where a starved compute rank shows, so
// they get the watchdog treatment with the stage the rank was awaiting.
func (m *Monitor) foldSpanLocked(ev trace.Event, ph metrics.Phase, stage int) {
	if ph == metrics.PhaseWait {
		// A wait that began after every expected release had already
		// arrived is not starving on stage data (a terminal barrier,
		// say) — there is no plan edge to budget it against.
		if waitStage := m.awaitedLocked(ev.Track, ev.Ts); waitStage >= 0 {
			m.checkBudgetLocked(ev.Track, "wait", waitStage, ev)
		}
		return
	}

	m.spans++
	if d := m.check.Span(ev.Track, plan.DAGNode{Phase: ev.Name, Stage: stage}); d != "" {
		m.divergeLocked(d)
	}
	m.checkBudgetLocked(ev.Track, ev.Name, stage, ev)
}

// foldReadyLocked checks one "ready" instant and times its arrival.
func (m *Monitor) foldReadyLocked(ev trace.Event, stage int) {
	if ts := m.readyTs[ev.Track]; ts == nil {
		m.readyTs[ev.Track] = map[int]float64{stage: ev.Ts}
	} else if _, dup := ts[stage]; !dup {
		ts[stage] = ev.Ts
	}
	if d := m.check.Ready(ev.Track, stage); d != "" {
		m.divergeLocked(d)
	}
}

// awaitedLocked returns the first of the track's planned releases that had
// not arrived by ts, or -1. (The checker's release cursor is no use here:
// on the real substrate the helper goroutine may deliver several "ready"
// instants before the main thread's wait span is emitted.)
func (m *Monitor) awaitedLocked(track string, ts float64) int {
	for _, stage := range m.check.Expected(track).Ready {
		if at, ok := m.readyTs[track][stage]; !ok || at > ts {
			return stage
		}
	}
	return -1
}

// blamedEdgeLocked names the plan edge a compute track is (or was)
// waiting on: the I/O ranks with a level-0 wire edge to it at the stage,
// and the stage's Expect count. Without a stage, the first release still
// outstanding.
func (m *Monitor) blamedEdgeLocked(track string, stage int) string {
	var r *plan.ComputeRank
	for q := 0; m.cp != nil && q < len(m.cp.Compute); q++ {
		if m.cp.Compute[q].Name == track {
			r = &m.cp.Compute[q]
		}
	}
	if r == nil {
		return ""
	}
	// The stage asked about, else the first release still outstanding,
	// else the first stage fed by messages.
	var feed *plan.ComputeStage
	for _, want := range []int{stage, m.awaitedLocked(track, math.Inf(1)), math.MinInt} {
		for i := range r.Stages {
			if st := &r.Stages[i]; feed == nil && st.Expect > 0 && (st.Stage == want || want == math.MinInt) {
				feed = st
			}
		}
	}
	if feed == nil {
		return ""
	}
	var srcs []string
	for q := range m.cp.IO {
		if _, ok := m.edges[plan.EdgeKey{Src: m.cp.IO[q].Rank, Dst: r.Rank, Stage: feed.Stage}]; ok {
			srcs = append(srcs, m.cp.IO[q].Name)
		}
	}
	return fmt.Sprintf("%s -> %s (stage %d, %d member blocks expected)",
		compactNames(srcs), track, feed.Stage, feed.Expect)
}

// ioEdgeLocked names the forward edge of an I/O rank: the compute ranks
// its pending stage's wire edges feed — who starves if it stalls or dies.
func (m *Monitor) ioEdgeLocked(track string) string {
	for q := 0; m.cp != nil && q < len(m.cp.IO); q++ {
		if r := &m.cp.IO[q]; r.Name == track {
			stage := m.cp.Spec.L - 1 // a finished reader names its last stage
			if next, ok := m.check.Next(track); ok {
				stage = max(next.Stage, 0) // the baselines' one stage is untagged
			}
			var dsts []string
			for d := range m.cp.Compute {
				if _, ok := m.edges[plan.EdgeKey{Src: r.Rank, Dst: m.cp.Compute[d].Rank, Stage: stage}]; ok {
					dsts = append(dsts, m.cp.Compute[d].Name)
				}
			}
			return fmt.Sprintf("%s -> %s (stage %d)", track, compactNames(dsts), stage)
		}
	}
	return ""
}

// compactNames renders a source list, eliding long ones.
func compactNames(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if len(sorted) <= 4 {
		return strings.Join(sorted, ",")
	}
	return fmt.Sprintf("%s,... (%d ranks)", strings.Join(sorted[:3], ","), len(sorted))
}

// classifyErrorLocked maps a run error onto plan edges by duck-typing the
// substrate error shapes: a simulated deadlock exposes BlockedOn() (proc →
// synchronization object), a real-world abort exposes FailedRank().
func (m *Monitor) classifyErrorLocked(err error) []string {
	var edges []string
	seen := map[string]bool{}
	addEdge := func(e string) {
		if e != "" && !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for e := err; e != nil; e = unwrap(e) {
		if b, ok := e.(interface{ BlockedOn() map[string]string }); ok {
			procs := make([]string, 0, len(b.BlockedOn()))
			blocked := b.BlockedOn()
			for p := range blocked {
				procs = append(procs, p)
			}
			sort.Strings(procs)
			for i, p := range procs {
				var edge string
				if strings.HasPrefix(p, metrics.ComputePrefix+"/") {
					edge = m.blamedEdgeLocked(p, -1)
				} else {
					edge = m.ioEdgeLocked(p)
				}
				addEdge(edge)
				if i < 8 {
					m.incidentLocked(Incident{
						Kind: "deadlock", Proc: p,
						Detail: "blocked on " + blocked[p],
						Edge:   edge,
					}, false)
				}
			}
			m.reg.Inc("monitor/deadlocks")
		}
		if f, ok := e.(interface{ FailedRank() int }); ok {
			name := m.rankName[f.FailedRank()]
			if name == "" {
				name = fmt.Sprintf("rank %d", f.FailedRank())
			}
			var edge string
			if strings.HasPrefix(name, metrics.IOPrefix+"/") {
				edge = m.ioEdgeLocked(name)
			} else {
				edge = m.blamedEdgeLocked(name, -1)
			}
			addEdge(edge)
			m.incidentLocked(Incident{
				Kind: "rank-death", Proc: name,
				Detail: fmt.Sprintf("world rank %d failed", f.FailedRank()),
				Edge:   edge,
			}, false)
		}
	}
	return edges
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
