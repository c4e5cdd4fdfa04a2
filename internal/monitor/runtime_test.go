package monitor

import (
	"testing"

	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

// runtimeSample fabricates one sampler instant as the runtimeobs sampler
// would emit it through the tee.
func runtimeSample(ts float64, args ...trace.Arg) trace.Event {
	return trace.Event{
		Track: trace.RuntimeTrack, Cat: trace.CatRuntime,
		Name: runtimeobs.SampleEventName, Ph: trace.PhaseInstant,
		Ts: ts, Args: args,
	}
}

func arg(key string, v float64) trace.Arg { return trace.Arg{Key: key, Val: v} }

func TestGoroutineLeakWatchdogTripsOnceAfterWindow(t *testing.T) {
	m := New(Options{})
	// 40 more goroutines a sample: 320 gained over the 8-sample window,
	// then more growth that must not trip a second time.
	for i := 0; i < 12; i++ {
		m.Emit(runtimeSample(float64(i), arg(runtimeobs.ArgGoroutines, float64(100+40*i))))
	}
	st := m.Status()
	if len(st.Verdicts) != 1 {
		t.Fatalf("verdicts = %d, want exactly 1 (once per kind): %+v", len(st.Verdicts), st.Verdicts)
	}
	v := st.Verdicts[0]
	if v.Phase != "runtime:goroutine-leak" || v.Mode != "runtime" {
		t.Errorf("verdict = %+v, want runtime:goroutine-leak in runtime mode", v)
	}
	if v.Proc != trace.RuntimeTrack || v.Stage != -1 {
		t.Errorf("blame = (%s, %d), want (%s, -1) with no plan tracked", v.Proc, v.Stage, trace.RuntimeTrack)
	}
	if got := m.reg.CounterValue("monitor/runtime_trips"); got != 1 {
		t.Errorf("runtime_trips = %g, want 1", got)
	}
	if got := m.reg.CounterValue("monitor/watchdog_trips"); got != 1 {
		t.Errorf("watchdog_trips = %g, want 1", got)
	}
	if dump := m.LastDump(); len(dump) == 0 {
		t.Error("runtime trip did not fire the flight recorder")
	}
}

func TestGoroutineLeakResetsOnNonGrowth(t *testing.T) {
	m := New(Options{})
	// Growth windows of length 7, each gaining far more than the floor,
	// separated by dips never reach the window of 8.
	var counts []float64
	for _, start := range []float64{100, 50} {
		for i := 0; i < 8; i++ {
			counts = append(counts, start+100*float64(i))
		}
	}
	counts = append(counts, 0)
	for i, g := range counts {
		m.Emit(runtimeSample(float64(i), arg(runtimeobs.ArgGoroutines, g)))
	}
	if st := m.Status(); len(st.Verdicts) != 0 {
		t.Fatalf("bursty-but-settling goroutine counts tripped: %+v", st.Verdicts)
	}
}

func TestHeapGrowthWatchdogTripsWithoutGC(t *testing.T) {
	m := New(Options{})
	emit := func(ts, heap, gc float64) {
		m.Emit(runtimeSample(ts,
			arg(runtimeobs.ArgHeapInuse, heap), arg(runtimeobs.ArgGCCycles, gc)))
	}
	emit(0, 1000, 5)
	emit(1, 1000+heapGrowthBudget-200, 5) // under budget
	emit(2, 1000+heapGrowthBudget+500, 5) // budget+500 since the gc-5 base: trip
	st := m.Status()
	if len(st.Verdicts) != 1 || st.Verdicts[0].Phase != "runtime:heap-growth" {
		t.Fatalf("verdicts = %+v, want one runtime:heap-growth", st.Verdicts)
	}
	if ob := st.Verdicts[0].Observed; ob != heapGrowthBudget+500 {
		t.Errorf("observed growth = %g, want %d", ob, heapGrowthBudget+500)
	}
}

func TestHeapGrowthBaseResetsOnGCCycle(t *testing.T) {
	m := New(Options{})
	emit := func(ts, heap, gc float64) {
		m.Emit(runtimeSample(ts,
			arg(runtimeobs.ArgHeapInuse, heap), arg(runtimeobs.ArgGCCycles, gc)))
	}
	emit(0, 1000, 5)
	emit(1, 1000+2*heapGrowthBudget, 6) // big jump, but the GC ran: new base
	emit(2, 800+3*heapGrowthBudget, 6)  // budget-200 since base, under budget
	if st := m.Status(); len(st.Verdicts) != 0 {
		t.Fatalf("heap growth across a GC cycle tripped: %+v", st.Verdicts)
	}
}

func TestGCPauseWatchdogTrips(t *testing.T) {
	m := New(Options{})
	m.Emit(runtimeSample(1, arg(runtimeobs.ArgGCPause, 1.4)))
	st := m.Status()
	if len(st.Verdicts) != 1 || st.Verdicts[0].Phase != "runtime:gc-pause" {
		t.Fatalf("verdicts = %+v, want one runtime:gc-pause", st.Verdicts)
	}
	if st.Verdicts[0].Observed != 1.4 || st.Verdicts[0].Budget != gcPauseBudget {
		t.Errorf("verdict = %+v, want observed 1.4 budget %g", st.Verdicts[0], gcPauseBudget)
	}
	if len(st.Incidents) != 1 || st.Incidents[0].Kind != "runtime" {
		t.Errorf("incidents = %+v, want one runtime incident", st.Incidents)
	}
}

func TestRuntimeEventsStayOffThePlanRing(t *testing.T) {
	m := New(Options{})
	m.Emit(runtimeSample(1, arg(runtimeobs.ArgGoroutines, 10)))
	m.Emit(runtimeSample(2, arg(runtimeobs.ArgGoroutines, 11)))
	m.mu.Lock()
	planRing, rtRing := len(m.ring.events()), len(m.runtime.ring.events())
	m.mu.Unlock()
	if planRing != 0 {
		t.Errorf("plan ring holds %d runtime events, want 0", planRing)
	}
	if rtRing != 2 {
		t.Errorf("runtime ring holds %d events, want 2", rtRing)
	}
}

func TestFlightDumpInterleavesRuntimeSamples(t *testing.T) {
	m := New(Options{})
	m.Emit(trace.Event{Track: "io/g0/r0", Cat: trace.CatPhase, Name: "read", Ph: trace.PhaseSpan, Ts: 0.5, Dur: 1})
	m.Emit(runtimeSample(1, arg(runtimeobs.ArgGoroutines, 10)))
	m.Emit(trace.Event{Track: "io/g0/r0", Cat: trace.CatPhase, Name: "comm", Ph: trace.PhaseSpan, Ts: 2, Dur: 1})
	m.mu.Lock()
	m.dumpLocked()
	m.mu.Unlock()
	dump := m.LastDump()
	if len(dump) != 3 {
		t.Fatalf("dump holds %d events, want 3 (2 plan + 1 runtime)", len(dump))
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].Ts < dump[i-1].Ts {
			t.Fatalf("dump out of time order at %d: %g after %g", i, dump[i].Ts, dump[i-1].Ts)
		}
	}
	if dump[1].Track != trace.RuntimeTrack {
		t.Errorf("middle dump event on track %q, want %q", dump[1].Track, trace.RuntimeTrack)
	}
}
