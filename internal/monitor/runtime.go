// Runtime watchdogs: the monitor's view of the Go runtime underneath the
// schedule. The runtimeobs sampler streams CatRuntime "sample" instants
// through the same tee as the plan events; the monitor folds them into a
// dedicated runtime ring (merged into flight dumps, so an anomaly dump
// shows GC/heap context on the plan's clock) and checks three health
// invariants:
//
//   - goroutine leak: the goroutine count grows monotonically across a
//     window of consecutive samples by more than a floor — plan
//     executions spawn in bursts and settle, so sustained growth means
//     leaked helpers;
//   - heap growth without GC progress: heap-in-use grows past a budget
//     while the GC cycle counter stands still — allocation outrunning
//     collection;
//   - GC-pause budget: a stop-the-world pause longer than the budget,
//     which on the real substrate directly distorts phase spans.
//
// A trip produces a Verdict whose (proc, stage) blames the modal
// in-flight plan stage — the stage most ranks were executing when the
// runtime went bad — and triggers the flight recorder like any other
// anomaly.

package monitor

import (
	"fmt"

	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

// The runtime watchdog budgets.
const (
	gcPauseBudget       = 1.0       // seconds of stop-the-world
	goroutineLeakWindow = 8         // consecutive growing samples before a leak verdict
	goroutineLeakGrowth = 256       // goroutines gained across the window
	heapGrowthBudget    = 512 << 20 // bytes grown without a GC cycle
	runtimeRingSamples  = 64        // runtime events kept for flight dumps
)

// runtimeState is the monitor's runtime-watchdog bookkeeping: what the
// next sample is compared against. The readings themselves are the
// sampler's runtime/* gauges.
type runtimeState struct {
	ring *ring // runtime-track events, merged into flight dumps
	seen bool  // a sample has been folded since New

	goroutines float64         // the previous sample's goroutine count
	gorGrowth  int             // consecutive samples with growing goroutine count
	gorBase    float64         // goroutine count at the start of the growth window
	heapBase   float64         // heap-in-use at the last GC-cycle change
	lastGC     float64         // the previous sample's GC cycle count
	tripped    map[string]bool // watchdog kind -> already tripped
}

// foldRuntimeLocked checks one sampler instant against the three health
// invariants. Callers hold m.mu.
func (m *Monitor) foldRuntimeLocked(ev trace.Event) {
	gor, _ := ev.ArgValue(runtimeobs.ArgGoroutines)
	heap, _ := ev.ArgValue(runtimeobs.ArgHeapInuse)
	gc, _ := ev.ArgValue(runtimeobs.ArgGCCycles)
	pause, _ := ev.ArgValue(runtimeobs.ArgGCPause)

	rt := &m.runtime
	prevGor, had := rt.goroutines, rt.seen
	rt.goroutines, rt.seen = gor, true

	// Goroutine leak: count consecutive strictly-growing samples.
	if had && gor > prevGor {
		if rt.gorGrowth == 0 {
			rt.gorBase = prevGor
		}
		rt.gorGrowth++
		if rt.gorGrowth >= goroutineLeakWindow && gor-rt.gorBase >= goroutineLeakGrowth {
			m.runtimeTripLocked("goroutine-leak", ev.Ts, gor-rt.gorBase, goroutineLeakGrowth,
				fmt.Sprintf("goroutine count grew %d samples straight, %.0f -> %.0f",
					rt.gorGrowth, rt.gorBase, gor))
		}
	} else {
		rt.gorGrowth = 0
	}

	// Heap growth without GC progress.
	if !had || gc != rt.lastGC {
		rt.lastGC = gc
		rt.heapBase = heap
	} else if grown := heap - rt.heapBase; grown > heapGrowthBudget {
		m.runtimeTripLocked("heap-growth", ev.Ts, grown, heapGrowthBudget,
			fmt.Sprintf("heap grew %.0f MiB with no GC cycle (%.0f -> %.0f MiB)",
				grown/(1<<20), rt.heapBase/(1<<20), heap/(1<<20)))
	}

	// GC-pause budget.
	if pause > gcPauseBudget {
		m.runtimeTripLocked("gc-pause", ev.Ts, pause, gcPauseBudget,
			fmt.Sprintf("stop-the-world pause %.3gs exceeds %.3gs budget",
				pause, gcPauseBudget))
	}
}

// runtimeTripLocked records a runtime watchdog verdict, blamed on the
// modal in-flight plan stage, and fires the flight recorder. Each kind
// trips at most once per run.
func (m *Monitor) runtimeTripLocked(kind string, at, observed, budget float64, detail string) {
	rt := &m.runtime
	if rt.tripped == nil {
		rt.tripped = map[string]bool{}
	}
	if rt.tripped[kind] {
		return
	}
	rt.tripped[kind] = true

	proc, stage := m.modalStageLocked()
	v := Verdict{
		Proc: proc, Phase: "runtime:" + kind, Stage: stage,
		Observed: observed, Budget: budget, Tolerance: 1,
		Mode: "runtime", At: at,
	}
	m.reg.Inc("monitor/runtime_trips")
	m.tripLocked(v, Incident{
		Kind: "runtime", Proc: proc, Time: at,
		Detail: detail + " (blaming " + v.Phase + fmt.Sprintf(" at stage %d)", stage),
	}, true)
}

// modalStageLocked returns the plan stage most in-flight ranks are
// currently executing, and a representative proc at that stage — the
// best available blame target for a process-wide runtime anomaly.
// Returns (trace.RuntimeTrack, -1) when no plan is being tracked.
func (m *Monitor) modalStageLocked() (string, int) {
	votes := map[int]int{}
	rep := map[int]string{}
	for _, name := range m.check.Tracks() { // in name order: the first at a stage represents it
		next, ok := m.check.Next(name)
		if !ok || m.dead[name] {
			continue
		}
		votes[next.Stage]++
		if _, seen := rep[next.Stage]; !seen {
			rep[next.Stage] = name
		}
	}
	bestStage, bestVotes := -1, 0
	for stage, n := range votes {
		if n > bestVotes || (n == bestVotes && stage < bestStage) {
			bestStage, bestVotes = stage, n
		}
	}
	if bestVotes == 0 {
		return trace.RuntimeTrack, -1
	}
	return rep[bestStage], bestStage
}

// mergeByTs merges two time-ordered event slices into one, preserving
// order — used to interleave the runtime ring into flight dumps.
func mergeByTs(a, b []trace.Event) []trace.Event {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]trace.Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Ts <= b[j].Ts {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
