package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"senkf/internal/metrics"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Detail() {
		t.Fatal("nil tracer reports detail")
	}
	if tr.Now() != 0 {
		t.Fatal("nil tracer Now != 0")
	}
	if tr.Counters() != nil {
		t.Fatal("nil tracer has counters")
	}
	// None of these may panic.
	tr.Span("a", "b", "c", 0, 1)
	tr.Instant("a", "b", "c", 0)
	tr.Counter("a", "c", 0, 1)
	tr.SetDetail(true)
	tr.SetCounters(NewRegistry())
}

func TestTracerNoSinksDisabled(t *testing.T) {
	tr := New(nil)
	if tr.Enabled() {
		t.Fatal("sink-less tracer reports enabled")
	}
	// Counters still work without span sinks.
	reg := NewRegistry()
	tr.SetCounters(reg)
	tr.Counters().Inc("x")
	if got := reg.CounterValue("x"); got != 1 {
		t.Fatalf("counter via sink-less tracer = %v, want 1", got)
	}
}

func TestBufferCollectsEvents(t *testing.T) {
	buf := NewBuffer()
	tr := New(nil, buf)
	if !tr.Enabled() {
		t.Fatal("tracer with sink not enabled")
	}
	tr.Span("cpu0", "phase", "compute", 1.0, 2.5, Arg{Key: "stage", Val: 3})
	tr.Instant("cpu0", "stage", "ready", 0.5, Arg{Key: "stage", Val: 3})
	tr.Counter("res", "queue", 1.5, 4)
	if buf.Len() != 3 {
		t.Fatalf("buffer holds %d events, want 3", buf.Len())
	}
	evs := buf.Events()
	if evs[0].Ph != PhaseSpan || evs[0].Dur != 1.5 {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if v, ok := evs[0].ArgValue("stage"); !ok || v != 3 {
		t.Fatalf("span arg wrong: %+v", evs[0].Args)
	}
	if evs[1].Ph != PhaseInstant || evs[1].Ts != 0.5 {
		t.Fatalf("instant event wrong: %+v", evs[1])
	}
	if evs[2].Ph != PhaseCounter {
		t.Fatalf("counter event wrong: %+v", evs[2])
	}
	if v, ok := evs[2].ArgValue("value"); !ok || v != 4 {
		t.Fatalf("counter value wrong: %+v", evs[2].Args)
	}
}

func TestDetailGating(t *testing.T) {
	tr := New(nil, NewBuffer())
	if tr.Detail() {
		t.Fatal("detail on by default")
	}
	tr.SetDetail(true)
	if !tr.Detail() {
		t.Fatal("detail not enabled")
	}
	// Detail requires a sink: a sink-less tracer never reports detail.
	bare := New(nil)
	bare.SetDetail(true)
	if bare.Detail() {
		t.Fatal("sink-less tracer reports detail")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	events := []Event{
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 1.25, Dur: 0.5,
			Args: []Arg{{Key: "stage", Val: 2}}},
		{Track: "io/g0/r1", Cat: "phase", Name: "read", Ph: PhaseSpan, Ts: 0, Dur: 1},
		{Track: "comp/x0y0", Cat: "stage", Name: "ready", Ph: PhaseInstant, Ts: 1.0,
			Args: []Arg{{Key: "stage", Val: 2}}},
		{Track: "ost0", Cat: "counter", Name: "queue", Ph: PhaseCounter, Ts: 2,
			Args: []Arg{{Key: "value", Val: 7}}},
	}
	var out bytes.Buffer
	if err := WriteChrome(&out, events); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// The output must be valid JSON of the expected shape.
	var generic map[string]any
	if err := json.Unmarshal(out.Bytes(), &generic); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	arr, ok := generic["traceEvents"].([]any)
	if !ok {
		t.Fatalf("no traceEvents array in %q", out.String())
	}
	// 3 distinct tracks -> 3 metadata events + 4 payload events.
	if len(arr) != 7 {
		t.Fatalf("traceEvents has %d entries, want 7", len(arr))
	}

	back, err := ReadChrome(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip returned %d events, want %d", len(back), len(events))
	}
	for i, ev := range events {
		got := back[i]
		if got.Track != ev.Track || got.Cat != ev.Cat || got.Name != ev.Name || got.Ph != ev.Ph {
			t.Fatalf("event %d identity changed: got %+v want %+v", i, got, ev)
		}
		if math.Abs(got.Ts-ev.Ts) > 1e-9 || math.Abs(got.Dur-ev.Dur) > 1e-9 {
			t.Fatalf("event %d time changed: got ts=%v dur=%v want ts=%v dur=%v",
				i, got.Ts, got.Dur, ev.Ts, ev.Dur)
		}
		if len(got.Args) != len(ev.Args) {
			t.Fatalf("event %d args changed: got %+v want %+v", i, got.Args, ev.Args)
		}
		for _, a := range ev.Args {
			if v, ok := got.ArgValue(a.Key); !ok || v != a.Val {
				t.Fatalf("event %d arg %s: got %v want %v", i, a.Key, v, a.Val)
			}
		}
	}
}

func TestChromeWriteEmpty(t *testing.T) {
	var out bytes.Buffer
	if err := WriteChrome(&out, nil); err != nil {
		t.Fatalf("WriteChrome(nil): %v", err)
	}
	back, err := ReadChrome(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	if len(back) != 0 {
		t.Fatalf("empty trace round-tripped to %d events", len(back))
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Inc("a")
	r.Add("a", 2)
	r.Add("b", 0.5)
	if got := r.CounterValue("a"); got != 3 {
		t.Fatalf("counter a = %v, want 3", got)
	}
	r.SetGauge("g", 5)
	r.SetGauge("g", 2)
	if got := r.GaugeMax("g"); got != 5 {
		t.Fatalf("gauge high-water = %v, want 5", got)
	}
	r.Observe("h", 0.5)
	r.Observe("h", 5)
	r.Observe("h", 50)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("snapshot counters wrong: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 2 || s.Gauges[0].HighWater != 5 {
		t.Fatalf("snapshot gauges wrong: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot histograms wrong: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 3 || h.Sum != 55.5 {
		t.Fatalf("histogram totals wrong: %+v", h)
	}
	// DefaultBuckets: 0.5 lands under 1, 5 under 10, 50 under 100.
	want := []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0}
	if len(h.Counts) != len(want) {
		t.Fatalf("histogram counts = %v, want %v", h.Counts, want)
	}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("histogram counts = %v, want %v", h.Counts, want)
		}
	}
	if math.Abs(h.Mean()-18.5) > 1e-12 {
		t.Fatalf("histogram mean = %v, want 18.5", h.Mean())
	}

	// Nil registry: all no-ops, zero reads.
	var nilReg *Registry
	nilReg.Inc("x")
	nilReg.SetGauge("x", 1)
	nilReg.Observe("x", 1)
	if nilReg.CounterValue("x") != 0 || nilReg.GaugeMax("x") != 0 {
		t.Fatal("nil registry returned nonzero")
	}
	if len(nilReg.Snapshot().Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Add("mpi.bytes", 4096)
	r.SetGauge("mailbox.depth", 3)
	r.Observe("ost.service", 0.002)

	var table bytes.Buffer
	if err := r.WriteTable(&table); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	for _, want := range []string{"mpi.bytes", "4096", "mailbox.depth", "histogram ost.service"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table output missing %q:\n%s", want, table.String())
		}
	}
}

func TestPhaseBreakdownAndSpans(t *testing.T) {
	events := []Event{
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 0, Dur: 2},
		{Track: "comp/x0y0", Cat: "phase", Name: "wait", Ph: PhaseSpan, Ts: 2, Dur: 1},
		{Track: "comp/x1y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 1, Dur: 2},
		{Track: "io/g0/r0", Cat: "phase", Name: "read", Ph: PhaseSpan, Ts: 0, Dur: 4},
		// Non-phase events must be ignored.
		{Track: "comp/x0y0", Cat: "stage", Name: "ready", Ph: PhaseInstant, Ts: 0.5},
		{Track: "ost0", Cat: "ost", Name: "service", Ph: PhaseSpan, Ts: 0, Dur: 9},
	}
	b := PhaseBreakdown(events, "comp")
	if b.Compute != 4 || b.Wait != 1 || b.Read != 0 {
		t.Fatalf("PhaseBreakdown = %+v", b)
	}
	if got := PhaseBreakdown(events, "nosuch"); got != (metrics.Breakdown{}) {
		t.Fatalf("PhaseBreakdown of empty prefix = %+v", got)
	}
}

func TestCheckStageOrdering(t *testing.T) {
	good := []Event{
		{Track: "comp/x0y0", Cat: "stage", Name: "ready", Ph: PhaseInstant, Ts: 1, Args: []Arg{{Key: "stage", Val: 0}}},
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 1, Dur: 2, Args: []Arg{{Key: "stage", Val: 0}}},
		{Track: "comp/x0y0", Cat: "stage", Name: "ready", Ph: PhaseInstant, Ts: 2, Args: []Arg{{Key: "stage", Val: 1}}},
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 3, Dur: 2, Args: []Arg{{Key: "stage", Val: 1}}},
	}
	n, err := CheckStageOrdering(good)
	if err != nil || n != 2 {
		t.Fatalf("good trace: n=%d err=%v", n, err)
	}

	bad := append([]Event(nil), good...)
	bad[3].Ts = 1.5 // stage-1 compute before its ready instant at t=2
	if _, err := CheckStageOrdering(bad); err == nil {
		t.Fatal("out-of-order compute not detected")
	}

	orphan := []Event{
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 0, Dur: 1, Args: []Arg{{Key: "stage", Val: 5}}},
	}
	if _, err := CheckStageOrdering(orphan); err == nil {
		t.Fatal("compute without ready event not detected")
	}
}

func TestCheckReadBeforeCompute(t *testing.T) {
	good := []Event{
		{Track: "comp/x0y0", Cat: "phase", Name: "read", Ph: PhaseSpan, Ts: 0, Dur: 1},
		{Track: "comp/x0y0", Cat: "phase", Name: "read", Ph: PhaseSpan, Ts: 1, Dur: 1},
		{Track: "comp/x0y0", Cat: "phase", Name: "compute", Ph: PhaseSpan, Ts: 2, Dur: 3},
	}
	n, err := CheckReadBeforeCompute(good, "comp")
	if err != nil || n != 1 {
		t.Fatalf("good trace: n=%d err=%v", n, err)
	}
	bad := append([]Event(nil), good...)
	bad[2].Ts = 1.5
	if _, err := CheckReadBeforeCompute(bad, "comp"); err == nil {
		t.Fatal("compute-before-read-finished not detected")
	}
}

func TestMaxConcurrent(t *testing.T) {
	events := []Event{
		{Track: "ost0", Cat: "ost", Name: "service", Ph: PhaseSpan, Ts: 0, Dur: 2},
		{Track: "ost0", Cat: "ost", Name: "service", Ph: PhaseSpan, Ts: 1, Dur: 2},
		// Starts exactly when the first ends: handoff, not overlap.
		{Track: "ost0", Cat: "ost", Name: "service", Ph: PhaseSpan, Ts: 2, Dur: 1},
		{Track: "ost1", Cat: "ost", Name: "service", Ph: PhaseSpan, Ts: 0, Dur: 5},
	}
	got := MaxConcurrent(events, "ost", "ost", "service")
	if got["ost0"] != 2 {
		t.Fatalf("ost0 max concurrency = %d, want 2", got["ost0"])
	}
	if got["ost1"] != 1 {
		t.Fatalf("ost1 max concurrency = %d, want 1", got["ost1"])
	}
}

// Every phase × stage Tracer.Phase and Tracer.Stage write comes back from
// a Chrome round trip through PhaseOf and ReadyOf as it went in, and no
// other event decodes as either.
func TestPlanEventsRoundTrip(t *testing.T) {
	buf := NewBuffer()
	tr := New(nil, buf)
	type want struct {
		ph    metrics.Phase
		stage int
	}
	var spans []want
	var ready []int
	for ph := metrics.PhaseRead; ph <= metrics.PhaseWait; ph++ {
		for _, stage := range []int{-1, 0, 5} {
			tr.Phase("comp/x0y0", ph, 1, 2.5, stage)
			spans = append(spans, want{ph, stage})
		}
	}
	for _, stage := range []int{-1, 0, 5} {
		tr.Stage("comp/x0y0", "ready", 3, stage)
		tr.Stage("comp/x0y0", "computed", 4, stage)
		ready = append(ready, stage)
	}
	var out bytes.Buffer
	if err := WriteChrome(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := ReadChrome(&out)
	if err != nil {
		t.Fatal(err)
	}
	var gotSpans []want
	var gotReady []int
	for _, ev := range events {
		if ph, stage, ok := PhaseOf(ev); ok {
			gotSpans = append(gotSpans, want{ph, stage})
		}
		if stage, ok := ReadyOf(ev); ok {
			gotReady = append(gotReady, stage)
		}
	}
	if fmt.Sprint(gotSpans) != fmt.Sprint(spans) {
		t.Errorf("PhaseOf decoded %v, want %v", gotSpans, spans)
	}
	if fmt.Sprint(gotReady) != fmt.Sprint(ready) {
		t.Errorf("ReadyOf decoded %v, want %v", gotReady, ready)
	}

	stage := []Arg{{Key: ArgStage, Val: 1}}
	for name, ev := range map[string]Event{
		"phase span of no phase":  {Track: "comp/x0y0", Cat: CatPhase, Name: "idle", Ph: PhaseSpan, Dur: 1, Args: stage},
		"phase instant":           {Track: "comp/x0y0", Cat: CatPhase, Name: "compute", Ph: PhaseInstant, Args: stage},
		"stage instant not ready": {Track: "comp/x0y0", Cat: CatStage, Name: "computed", Ph: PhaseInstant, Args: stage},
		"span of another cat":     {Track: "ost0", Cat: CatOST, Name: "read", Ph: PhaseSpan, Dur: 1, Args: stage},
	} {
		if _, _, ok := PhaseOf(ev); ok {
			t.Errorf("%s: PhaseOf accepts %+v", name, ev)
		}
		if _, ok := ReadyOf(ev); ok {
			t.Errorf("%s: ReadyOf accepts %+v", name, ev)
		}
	}
}
