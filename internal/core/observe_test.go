package core

import (
	"testing"
	"time"

	"senkf/internal/metrics"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// A phase is written once, as a span, and costs nothing when nobody listens:
// observe allocates nothing without a tracer (or with one that has no sink),
// and with a buffer behind the tracer emits exactly one span per phase.
func TestObserveWritesEachPhaseOnce(t *testing.T) {
	t0 := time.Now()
	phases := []metrics.Phase{metrics.PhaseRead, metrics.PhaseComm, metrics.PhaseCompute, metrics.PhaseWait}
	record := func(p plan.Problem) {
		for i, ph := range phases {
			from := t0.Add(time.Duration(i) * time.Millisecond)
			observe(p, "comp/x0y0", ph, t0, from, from.Add(time.Millisecond), i-1) // stages -1..2
		}
	}
	for name, p := range map[string]plan.Problem{"nil tracer": {}, "no sink": {Tr: trace.New(nil)}} {
		if n := testing.AllocsPerRun(100, func() { record(p) }); n != 0 {
			t.Errorf("%s: %v allocations per %d phases, want 0", name, n, len(phases))
		}
	}

	buf := trace.NewBuffer()
	record(plan.Problem{Tr: trace.New(nil, buf)})
	events := buf.Events()
	if len(events) != len(phases) {
		t.Fatalf("%d events for %d phases", len(events), len(phases))
	}
	for i, ev := range events {
		if ev.Ph != trace.PhaseSpan || ev.Cat != trace.CatPhase || ev.Track != "comp/x0y0" || ev.Name != phases[i].String() {
			t.Errorf("event %d = %+v, want a %s phase span on comp/x0y0", i, ev, phases[i])
		}
		if want := float64(i) * 1e-3; ev.Ts != want || ev.Dur <= 0.999e-3 || ev.Dur >= 1.001e-3 {
			t.Errorf("event %d spans [%g, +%g), want [%g, +1e-3)", i, ev.Ts, ev.Dur, want)
		}
		if stage, tagged := ev.ArgValue(trace.ArgStage); tagged != (i >= 1) || (tagged && stage != float64(i-1)) {
			t.Errorf("event %d stage tag = %v (%v), want stage %d tagged only when >= 0", i, stage, tagged, i-1)
		}
	}
	if b := trace.PhaseBreakdown(events, metrics.ComputePrefix); b.Total() <= 3.99e-3 || b.Total() >= 4.01e-3 {
		t.Errorf("breakdown folded from the stream = %+v, want 1 ms per phase", b)
	}
}
