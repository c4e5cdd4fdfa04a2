// End-to-end acceptance of the observability pipeline through the public
// facade: a traced quick-scale S-EnKF run must yield a report whose
// critical path explains the wall time within 1%, whose drift terms are
// finite, and whose bench record passes its own regression gate.
package senkf

import (
	"bytes"
	"math"
	"testing"

	"senkf/internal/figures"
	"senkf/internal/report"
	"senkf/internal/trace"
)

// tracedQuickSuite runs the quick-scale tuner + S-EnKF simulation with
// tracing and returns the events.
func tracedQuickSuite(t *testing.T, np int) []TraceEvent {
	t.Helper()
	o := figures.QuickOptions()
	buf := trace.NewBuffer()
	tr := trace.New(nil, buf)
	tr.SetCounters(trace.NewRegistry())
	o.Cfg.Tracer = tr
	s := NewFigureSuite(o)
	if _, _, err := s.SEnKFAt(np); err != nil {
		t.Fatal(err)
	}
	return buf.Events()
}

func TestRunReportEndToEnd(t *testing.T) {
	events := tracedQuickSuite(t, 180)

	// The report must survive the same Chrome file round trip senkf-report
	// performs.
	var file bytes.Buffer
	if err := trace.WriteChrome(&file, events); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadChromeTrace(&file)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := BuildRunReport(decoded)
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: critical-path span sum equals end-to-end wall time
	// within 1%.
	if rep.CriticalPath.CoverageError > 0.01 {
		t.Fatalf("critical path covers %g of %g (error %.3g%% > 1%%)",
			rep.CriticalPath.Total, rep.Runtime, 100*rep.CriticalPath.CoverageError)
	}
	// Acceptance: per-term drift is reported and finite.
	if rep.Model == nil {
		t.Fatal("no model section in the report")
	}
	if got := len(rep.Model.Drift.Terms); got != 4 {
		t.Fatalf("got %d drift terms, want t_read/t_comm/t_comp/t_total", got)
	}
	for _, term := range rep.Model.Drift.Terms {
		if math.IsNaN(term.RelErr) || math.IsInf(term.RelErr, 0) {
			t.Fatalf("drift term %s: non-finite RelErr %g", term.Term, term.RelErr)
		}
	}
	if rep.Model.Drift.Retuned == nil {
		t.Fatal("report did not retune under measured coefficients")
	}
	// The critical path of a healthy run is dominated by computation.
	if attr := rep.CriticalPath.Attribution; attr["comp/compute"] <= 0 {
		t.Fatalf("no compute time on the critical path: %v", attr)
	}
}

func TestCriticalPathFacade(t *testing.T) {
	events := tracedQuickSuite(t, 60)
	r, err := report.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if path := r.CriticalPath; math.Abs(path.Total-(path.End-path.Start)) > 1e-9*(path.End-path.Start) {
		t.Fatalf("path Total %g != End-Start %g", path.Total, path.End-path.Start)
	}
	if len(r.Stages) == 0 {
		t.Fatal("no stage overlap accounting from a multi-stage run")
	}
	for _, s := range r.Stages {
		if s.Efficiency < 0 || s.Efficiency > 1 {
			t.Fatalf("stage %d efficiency %g outside [0, 1]", s.Stage, s.Efficiency)
		}
	}
}

func TestBenchRecordGateEndToEnd(t *testing.T) {
	o := figures.QuickOptions()
	o.ProcCounts = []int{60}
	s := NewFigureSuite(o)
	rec, err := CollectBenchRecord(s, "quick")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteBenchRecord(dir, rec); err != nil {
		t.Fatal(err)
	}
	prev, _, ok, err := LatestBenchRecord(dir)
	if err != nil || !ok {
		t.Fatalf("LatestBenchRecord: ok=%v err=%v", ok, err)
	}
	deltas, err := CompareBenchRecords(prev, rec, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if reg := BenchRegressions(deltas); len(reg) != 0 {
		t.Fatalf("deterministic self-comparison regressed: %v", reg)
	}
}
