package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"senkf/internal/figures"
	"senkf/internal/trace"
)

// tracedQuickRun simulates the quick-scale S-EnKF at np processors with
// tracing and returns the events.
func tracedQuickRun(t *testing.T, np int) []trace.Event {
	t.Helper()
	o := figures.QuickOptions()
	buf := trace.NewBuffer()
	tr := trace.New(nil, buf)
	tr.SetCounters(trace.NewRegistry())
	o.Cfg.Tracer = tr
	s := figures.NewSuite(o)
	if _, _, err := s.SEnKFAt(np); err != nil {
		t.Fatal(err)
	}
	return buf.Events()
}

func TestBuildReportFromTracedRun(t *testing.T) {
	events := tracedQuickRun(t, 120)
	rep, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime <= 0 || rep.IOTracks == 0 || rep.ComputeTracks == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	// Acceptance criterion: the critical path explains the end-to-end time
	// within 1%.
	if rep.CriticalPath.CoverageError > 0.01 {
		t.Fatalf("critical path covers %g of %g (error %g > 1%%)",
			rep.CriticalPath.Total, rep.Runtime, rep.CriticalPath.CoverageError)
	}
	if rep.Model == nil {
		t.Fatal("traced simulated run produced no model section")
	}
	if !rep.Model.Info.HasDecision {
		t.Fatal("suite run carried no tuner decision instant")
	}
	for _, term := range rep.Model.Drift.Terms {
		if math.IsNaN(term.RelErr) || math.IsInf(term.RelErr, 0) {
			t.Fatalf("drift term %s has non-finite RelErr %g", term.Term, term.RelErr)
		}
	}
	if rep.Model.Drift.Retuned == nil {
		t.Fatal("decision present but no retune ran")
	}
	if len(rep.Stages) == 0 || rep.PipelineEfficiency <= 0 {
		t.Fatalf("no pipeline accounting: stages %v, efficiency %g", rep.Stages, rep.PipelineEfficiency)
	}
	if rep.OverlapFraction < 0 || rep.OverlapFraction > 1 {
		t.Fatalf("OverlapFraction = %g", rep.OverlapFraction)
	}

	// The report must survive a JSON round trip (the senkf-report -json path).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Runtime != rep.Runtime || back.CriticalPath.Segments != rep.CriticalPath.Segments {
		t.Fatalf("JSON round trip changed the report: %+v vs %+v", back, rep)
	}

	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path", "model drift", "pipeline"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, sb.String())
		}
	}
}

// Build folds each processor class from the phase spans alone: tracks
// that carry one, mean phase times per track, and the union of busy spans
// the overlap share is taken over.
func TestBuildFoldsPhaseSpansPerClass(t *testing.T) {
	events := []trace.Event{
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: trace.PhaseSpan, Ts: 0, Dur: 2},
		{Track: "comp/x0y0", Cat: "phase", Name: "wait", Ph: trace.PhaseSpan, Ts: 2, Dur: 1},
		{Track: "comp/x1y0", Cat: "phase", Name: "compute", Ph: trace.PhaseSpan, Ts: 1, Dur: 2},
		{Track: "io/g0/r0", Cat: "phase", Name: "read", Ph: trace.PhaseSpan, Ts: 0, Dur: 4},
		// Non-phase events must be ignored.
		{Track: "comp/x0y0", Cat: "stage", Name: "ready", Ph: trace.PhaseInstant, Ts: 0.5},
		{Track: "ost0", Cat: "ost", Name: "service", Ph: trace.PhaseSpan, Ts: 0, Dur: 3},
	}
	r, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeTracks != 2 || r.IOTracks != 1 {
		t.Fatalf("tracks: %d compute, %d I/O; want 2 and 1", r.ComputeTracks, r.IOTracks)
	}
	if r.ComputeMean.Compute != 2 || r.ComputeMean.Wait != 0.5 || r.IOMean.Read != 4 {
		t.Fatalf("means: compute %+v, I/O %+v", r.ComputeMean, r.IOMean)
	}
	// Compute [0,2] and [1,3] merge to [0,3]: 3 of the read's 4 s hidden.
	if r.OverlapFraction != 0.75 || r.OverlapRuntimeFraction != 0.75 {
		t.Fatalf("overlap %g of I/O, %g of runtime; want 0.75 and 0.75", r.OverlapFraction, r.OverlapRuntimeFraction)
	}
}

func TestBuildReportEmptyTrace(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("want error on empty trace")
	}
}

func TestExtractRunInfoRoundTripsThroughChrome(t *testing.T) {
	events := tracedQuickRun(t, 60)
	direct, ok := ExtractRunInfo(events)
	if !ok {
		t.Fatal("no prediction instant in trace")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, ok := ExtractRunInfo(decoded)
	if !ok {
		t.Fatal("prediction instant lost in the Chrome round trip")
	}
	if fromFile.Choice != direct.Choice || fromFile.Params != direct.Params ||
		fromFile.NP != direct.NP || fromFile.HasDecision != direct.HasDecision {
		t.Fatalf("round trip changed run info:\n%+v\n%+v", fromFile, direct)
	}
}
