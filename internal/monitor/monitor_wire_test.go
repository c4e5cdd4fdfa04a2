// End-to-end wire-conformance tests: the monitor reads the wire collector
// it is handed (Options.Wire) and judges each run's traffic against the
// compiled plan's expected edge matrix — clean runs conform exactly, an
// injected OST outage draws a per-OST verdict naming the saturated target.

package monitor_test

import (
	"strings"
	"testing"

	"senkf/internal/faults"
	"senkf/internal/monitor"
	"senkf/internal/schedule"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// attachWire is attach with a wire collector that the substrate feeds and
// the monitor reads.
func attachWire(cfg *schedule.Config, buf *trace.Buffer) (*monitor.Monitor, *wire.Collector) {
	wc := wire.NewCollector()
	m := monitor.New(monitor.Options{Wire: wc})
	attach(cfg, m, buf)
	cfg.Msgs = wc
	cfg.Reads = wc
	return m, wc
}

// TestMonitorWireConformanceCleanRun checks a healthy run: the status
// reports full coverage — no missing, short or unexpected edge, so the
// collector's matrix equals the expected one — and no divergence or
// verdict fires.
func TestMonitorWireConformanceCleanRun(t *testing.T) {
	cfg, ch := simConfig()
	buf := trace.NewBuffer()
	m, wc := attachWire(&cfg, buf)
	defer m.Close()

	if _, err := schedule.SimulateSEnKF(cfg, ch); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Conformance.DivergenceCount != 0 {
		t.Errorf("clean wired run diverged: %v", st.Conformance.Divergences)
	}
	if len(st.Verdicts) != 0 {
		t.Errorf("clean wired run tripped the watchdog: %+v", st.Verdicts)
	}
	if st.Wire == nil {
		t.Fatal("status carries no wire state despite an attached collector")
	}
	if st.Wire.Msgs == 0 || st.Wire.Bytes == 0 {
		t.Errorf("wire status empty: %+v", st.Wire)
	}
	if st.Wire.EdgesObserved == 0 || st.Wire.EdgesObserved != st.Wire.EdgesExpected {
		t.Errorf("edges observed %d vs expected %d", st.Wire.EdgesObserved, st.Wire.EdgesExpected)
	}
	if st.Wire.MissingEdges != 0 || st.Wire.ShortEdges != 0 || st.Wire.UnexpectedEdges != 0 {
		t.Errorf("clean run flagged edges: %+v", st.Wire)
	}
	if st.Wire.OSTs != cfg.FS.OSTs {
		t.Errorf("wire status saw %d OSTs, config has %d", st.Wire.OSTs, cfg.FS.OSTs)
	}
	if st.Wire.PeakOSTUtil <= 0 {
		t.Errorf("peak OST util %g, want > 0", st.Wire.PeakOSTUtil)
	}
	// The collector is the one count of wire traffic: /status reads this
	// run's share of it, which is all of it on a fresh collector.
	if sum := wc.Summary(0); st.Wire.Msgs != sum.Msgs || st.Wire.Bytes != sum.Bytes {
		t.Errorf("status wire %d msgs/%d bytes, collector %d/%d", st.Wire.Msgs, st.Wire.Bytes, sum.Msgs, sum.Bytes)
	}
}

// TestMonitorWireBlamesOutagedOST injects a full outage window on one
// storage target: the monitor must issue a per-OST wire verdict naming the
// saturated target, and the incident log must explain the stall.
func TestMonitorWireBlamesOutagedOST(t *testing.T) {
	cfg, ch := simConfig()
	cfg.Faults = &faults.Plan{OSTWindows: []faults.OSTWindow{
		{OST: 3, Start: 0, End: 0.5, Factor: 0},
	}}

	buf := trace.NewBuffer()
	m, _ := attachWire(&cfg, buf)
	defer m.Close()

	if _, err := schedule.SimulateSEnKF(cfg, ch); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	var hit *monitor.Verdict
	for i := range st.Verdicts {
		if st.Verdicts[i].Phase == "ost" && st.Verdicts[i].Proc == "ost3" {
			hit = &st.Verdicts[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no wire verdict blaming ost3; verdicts: %+v", st.Verdicts)
	}
	if hit.Mode != "wire" {
		t.Errorf("verdict mode %q, want wire", hit.Mode)
	}
	if hit.Observed <= 0 {
		t.Errorf("outage verdict carries no observed stall: %+v", hit)
	}
	var explained bool
	for _, inc := range st.Incidents {
		if inc.Proc == "ost3" && strings.Contains(inc.Detail, "outage") {
			explained = true
			break
		}
	}
	if !explained {
		t.Errorf("no incident explaining the ost3 outage: %+v", st.Incidents)
	}
	// An outage delays reads but loses nothing: the edge matrix still
	// conforms (no missing or short edges).
	if st.Wire == nil || st.Wire.MissingEdges != 0 || st.Wire.ShortEdges != 0 {
		t.Errorf("outage run lost edges: %+v", st.Wire)
	}
}

// TestMonitorWithoutWireReportsNoWireState pins the gating: a monitored
// but unwired run must not fabricate wire status or missing-edge
// divergences.
func TestMonitorWithoutWireReportsNoWireState(t *testing.T) {
	cfg, ch := simConfig()
	m := monitor.New(monitor.Options{})
	defer m.Close()
	buf := trace.NewBuffer()
	attach(&cfg, m, buf)

	if _, err := schedule.SimulateSEnKF(cfg, ch); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Wire != nil {
		t.Errorf("unwired run reports wire state: %+v", st.Wire)
	}
	if st.Conformance.DivergenceCount != 0 {
		t.Errorf("unwired run diverged: %v", st.Conformance.Divergences)
	}
}

// TestWireTrafficIsNotATraceEvent pins the single count: attaching a
// collector adds no event to the monitor's stream, because the monitor
// reads the collector instead of re-folding its traffic as events.
func TestWireTrafficIsNotATraceEvent(t *testing.T) {
	events := func(wired bool) int64 {
		cfg, ch := simConfig()
		buf := trace.NewBuffer()
		var m *monitor.Monitor
		if wired {
			m, _ = attachWire(&cfg, buf)
		} else {
			m = monitor.New(monitor.Options{})
			attach(&cfg, m, buf)
		}
		defer m.Close()
		if _, err := schedule.SimulateSEnKF(cfg, ch); err != nil {
			t.Fatal(err)
		}
		st := m.Status()
		if wired && st.Wire == nil {
			t.Fatal("wired run reports no wire state")
		}
		return st.Events
	}
	if plain, wired := events(false), events(true); plain == 0 || plain != wired {
		t.Errorf("monitor saw %d events unwired, %d wired; want the same, > 0", plain, wired)
	}
}

// TestMonitorWireJudgesEachRunOnItsOwn runs two simulations on one monitor
// and one collector: the collector holds both runs, yet each run's status
// matches the plan exactly, because BeginRun snapshots the collector. A
// /status-style reader polls throughout, since Status reads the collector
// while the substrate writes it (run under -race).
func TestMonitorWireJudgesEachRunOnItsOwn(t *testing.T) {
	cfg, ch := simConfig()
	buf := trace.NewBuffer()
	m, wc := attachWire(&cfg, buf)
	defer m.Close()

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Status()
			}
		}
	}()
	defer func() { close(stop); <-polled }()

	for run := int64(1); run <= 2; run++ {
		if _, err := schedule.SimulateSEnKF(cfg, ch); err != nil {
			t.Fatal(err)
		}
		st := m.Status()
		w := st.Wire
		if w == nil {
			t.Fatalf("run %d: no wire state", run)
		}
		if w.EdgesObserved == 0 || w.EdgesObserved != w.EdgesExpected {
			t.Errorf("run %d: edges observed %d vs expected %d", run, w.EdgesObserved, w.EdgesExpected)
		}
		if w.MissingEdges != 0 || w.ShortEdges != 0 || w.UnexpectedEdges != 0 {
			t.Errorf("run %d flagged edges: %+v", run, w)
		}
		if st.Conformance.DivergenceCount != 0 {
			t.Errorf("run %d diverged: %v", run, st.Conformance.Divergences)
		}
		if got := wc.Matrix().Totals().Bytes; got != run*w.Bytes {
			t.Errorf("collector holds %d stage bytes after run %d, want %d × %d", got, run, run, w.Bytes)
		}
	}
}
