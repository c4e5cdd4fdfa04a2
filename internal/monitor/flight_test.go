package monitor

import (
	"testing"

	"senkf/internal/trace"
)

func TestRingKeepsLastNOldestFirst(t *testing.T) {
	r := newRing(4)
	if got := r.events(); len(got) != 0 {
		t.Fatalf("fresh ring holds %d events", len(got))
	}
	for i := 0; i < 3; i++ {
		r.add(trace.Event{Ts: float64(i)})
	}
	if got := r.events(); len(got) != 3 || got[0].Ts != 0 || got[2].Ts != 2 {
		t.Fatalf("partial ring: %+v", got)
	}
	for i := 3; i < 11; i++ {
		r.add(trace.Event{Ts: float64(i)})
	}
	got := r.events()
	if len(got) != 4 {
		t.Fatalf("wrapped ring holds %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := float64(7 + i); ev.Ts != want {
			t.Errorf("event %d: Ts = %g, want %g (oldest first)", i, ev.Ts, want)
		}
	}
}

func TestDumpOnlyOnFirstAnomaly(t *testing.T) {
	m := New(Options{})
	m.Emit(trace.Event{Ts: 1})
	m.mu.Lock()
	m.dumpLocked()
	n := len(m.lastDump)
	m.mu.Unlock()
	if n != 1 {
		t.Fatalf("first dump snapshot has %d events, want 1", n)
	}
	m.Emit(trace.Event{Ts: 2})
	m.mu.Lock()
	m.dumpLocked()
	n = len(m.lastDump)
	m.mu.Unlock()
	if n != 1 {
		t.Errorf("second anomaly overwrote the first dump (now %d events)", n)
	}
}
