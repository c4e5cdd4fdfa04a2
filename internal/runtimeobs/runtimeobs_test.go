package runtimeobs

import (
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"senkf/internal/trace"
)

// A nil LabelSet must be a pure pass-through: no labels, fn runs, errors
// propagate.
func TestNilLabelSetIsNoOp(t *testing.T) {
	var l *LabelSet
	sc := l.Scope("io/g0/r0")
	if sc != nil {
		t.Fatalf("nil LabelSet produced a non-nil scope")
	}
	ran := false
	if err := sc.Do(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil Scope.Do: ran=%v err=%v", ran, err)
	}
	ran = false
	if err := sc.Stage(3, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil Scope.Stage: ran=%v err=%v", ran, err)
	}
}

func TestClassOf(t *testing.T) {
	for in, want := range map[string]string{
		"io/g0/r1": "io", "comp/x0y1": "comp", "ost3": "ost3", "cycle": "cycle",
	} {
		if got := ClassOf(in); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// Do must not allocate: it sets the scope's prebuilt label context and
// calls fn.
func TestScopeDoDoesNotAllocate(t *testing.T) {
	sc := Labels("run-1", "senkf", "sim").Scope("comp/x0y0")
	n := 0
	fn := func() error { n++; return nil }
	if a := testing.AllocsPerRun(100, func() { _ = sc.Do(fn) }); a != 0 {
		t.Fatalf("Scope.Do allocates %g objects per call, want 0", a)
	}
	if n == 0 {
		t.Fatal("Scope.Do did not run fn")
	}
}

// Round-trip: a synthetic profile through the test encoder and back
// through the parser must preserve sample types, values and labels.
func TestProfileRoundTrip(t *testing.T) {
	in := &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples: []Sample{
			{Values: []int64{4, 40_000_000}, Labels: map[string]string{
				LabelProc: "comp/x0y0", LabelStage: "2", LabelRunID: "r1"}},
			{Values: []int64{1, 10_000_000}},
		},
		PeriodNanos: 10_000_000,
	}
	out, err := ParseProfile(marshalProfile(in))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if len(out.SampleTypes) != 2 || out.SampleTypes[1].Type != "cpu" || out.SampleTypes[1].Unit != "nanoseconds" {
		t.Fatalf("sample types = %+v", out.SampleTypes)
	}
	if out.PeriodNanos != 10_000_000 {
		t.Fatalf("period = %d", out.PeriodNanos)
	}
	if len(out.Samples) != 2 {
		t.Fatalf("samples = %d", len(out.Samples))
	}
	s0 := out.Samples[0]
	if s0.Values[1] != 40_000_000 || s0.Labels[LabelProc] != "comp/x0y0" || s0.Labels[LabelStage] != "2" {
		t.Fatalf("sample 0 = %+v", s0)
	}
	if out.Samples[1].Labels != nil {
		t.Fatalf("sample 1 grew labels: %+v", out.Samples[1].Labels)
	}
	if idx := out.ValueIndex("cpu"); idx != 1 {
		t.Fatalf("ValueIndex(cpu) = %d", idx)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseProfile([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
	if _, err := ParseProfile([]byte{0x0a}); err == nil { // field 1, truncated length
		t.Fatal("truncated protobuf accepted")
	}
}

// The acceptance-criterion tolerance check, deterministic: a synthetic
// trace whose per-(class, stage) busy shares are known exactly, and a
// synthetic labeled profile whose CPU shares match them — the merged
// attribution must rank identically and agree within 2%.
func TestAttributionAgreesWithTraceBusyTime(t *testing.T) {
	// Busy seconds per (class, stage), mirroring a 3-stage S-EnKF run.
	busy := map[stageKey]float64{
		{"comp", 0}: 1.0,
		{"comp", 1}: 2.0,
		{"comp", 2}: 4.0,
		{"io", -1}:  1.0,
	}
	var events []trace.Event
	for k, d := range busy {
		track, name := k.class+"/x0y0", "compute"
		if k.class == "io" {
			track, name = "io/g0/r0", "read"
		}
		ev := trace.Event{Track: track, Cat: trace.CatPhase, Name: name, Ph: trace.PhaseSpan, Ts: 0, Dur: d}
		if k.stage >= 0 {
			ev.Args = []trace.Arg{{Key: trace.ArgStage, Val: float64(k.stage)}}
		}
		events = append(events, ev)
	}
	// Wait spans must not count as busy time.
	events = append(events, trace.Event{Track: "comp/x0y0", Cat: trace.CatPhase,
		Name: "wait", Ph: trace.PhaseSpan, Ts: 0, Dur: 100})

	p := &Profile{SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}}}
	for k, d := range busy {
		labels := map[string]string{LabelProc: k.class + "/x0y0"}
		if k.stage >= 0 {
			labels[LabelStage] = strconv.Itoa(k.stage)
		}
		p.Samples = append(p.Samples, Sample{Values: []int64{int64(d * 1e9)}, Labels: labels})
	}
	// Unlabeled scheduler overhead: counts toward total, not toward rows.
	p.Samples = append(p.Samples, Sample{Values: []int64{int64(0.5e9)}})

	attr, err := Attribute(p, events)
	if err != nil {
		t.Fatalf("Attribute: %v", err)
	}
	if attr.MaxShareError > 0.02 {
		t.Fatalf("share error %.4f exceeds 2%% on an exactly-proportional workload", attr.MaxShareError)
	}
	if len(attr.Stages) != 4 {
		t.Fatalf("rows = %d, want 4: %+v", len(attr.Stages), attr.Stages)
	}
	top := attr.Stages[0]
	if top.Class != "comp" || top.Stage != 2 {
		t.Fatalf("hottest row = %s stage %d, want comp stage 2", top.Class, top.Stage)
	}
	if math.Abs(top.CPUShare-0.5) > 1e-9 || math.Abs(top.BusyShare-0.5) > 1e-9 {
		t.Fatalf("top shares = %.3f cpu / %.3f busy, want 0.5 / 0.5", top.CPUShare, top.BusyShare)
	}
	if want := 8.0 / 8.5; math.Abs(attr.LabeledFraction()-want) > 1e-9 {
		t.Fatalf("labeled fraction = %.4f, want %.4f", attr.LabeledFraction(), want)
	}
	if got := ProfileStages(p); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("ProfileStages = %v", got)
	}
}

func TestAttributeRejectsProfileWithoutCPUColumn(t *testing.T) {
	p := &Profile{SampleTypes: []ValueType{{Type: "inuse_space", Unit: "bytes"}}}
	if _, err := Attribute(p, nil); err == nil {
		t.Fatal("heap-shaped profile accepted for CPU attribution")
	}
}

// End-to-end label propagation: run real CPU work under Scope/Stage
// labels while profiling, then parse the capture with our own reader and
// slice it by {proc, stage}. Skipped (not failed) when the profiler
// lands no samples on a heavily loaded host.
func TestLabeledCaptureSlicesByProcAndStage(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU capture in -short mode")
	}
	var buf writerBuffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	l := Labels("run-e2e", "senkf", "real")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		sc := l.Scope("comp/x0y" + strconv.Itoa(g))
		go func() {
			defer wg.Done()
			_ = sc.Do(func() error {
				for st := 0; st < 2; st++ {
					_ = sc.Stage(st, func() error {
						spin(80) // ~80ms of arithmetic per stage
						return nil
					})
				}
				return nil
			})
		}()
	}
	wg.Wait()
	pprof.StopCPUProfile()

	p, err := ParseProfile(buf.b)
	if err != nil {
		t.Fatalf("parse own CPU capture: %v", err)
	}
	var labeled int
	stages := map[string]bool{}
	for _, s := range p.Samples {
		if s.Labels[LabelRunID] != "run-e2e" {
			continue
		}
		labeled++
		if s.Labels[LabelProc] == "" {
			t.Fatalf("run-labeled sample missing proc label: %+v", s.Labels)
		}
		if st := s.Labels[LabelStage]; st != "" {
			stages[st] = true
		}
	}
	if labeled == 0 {
		t.Skip("profiler landed no samples on the labeled goroutines")
	}
	if len(stages) == 0 {
		t.Fatalf("%d labeled samples but none carries a stage label", labeled)
	}
	if _, err := Attribute(p, nil); err != nil {
		t.Fatalf("Attribute on real capture: %v", err)
	}
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// spin burns roughly ms milliseconds of CPU in a loop the compiler
// cannot elide. The sink is atomic because labeled goroutines spin
// concurrently under -race.
var spinSink atomic.Uint64

func spin(ms int) {
	// ~2e6 iterations/ms is a safe overestimate on CI hardware; the loop
	// self-calibrates by iteration count, not wall time, so virtual-time
	// determinism elsewhere is unaffected.
	n := ms * 200_000
	x := 1.0
	for i := 0; i < n; i++ {
		x += math.Sqrt(float64(i&1023) + x/1e6)
	}
	spinSink.Store(math.Float64bits(x))
}

// Sampler smoke: against a live buffer+registry, Start/Stop must publish
// at least the final synchronous sample, with nondecreasing timestamps,
// and the registry gauges must be set.
func TestSamplerPublishesAndStopsCleanly(t *testing.T) {
	buf := trace.NewBuffer()
	reg := trace.NewRegistry()
	tr := trace.New(nil, buf)
	s := NewSampler(SamplerConfig{Tracer: tr, Registry: reg, Interval: 5e6}) // 5ms
	s.Start()
	// Force some allocation and GC traffic so readings move.
	for i := 0; i < 50; i++ {
		_ = make([]byte, 1<<16)
	}
	s.Stop()
	s.Stop() // idempotent

	var instants []trace.Event
	lastTs := math.Inf(-1)
	for _, ev := range buf.Events() {
		if ev.Cat != trace.CatRuntime {
			continue
		}
		if ev.Track != trace.RuntimeTrack || ev.Name != SampleEventName || ev.Ph != trace.PhaseInstant {
			t.Fatalf("unexpected runtime event: %+v", ev)
		}
		if ev.Ts < lastTs {
			t.Fatalf("runtime samples reordered: %g after %g", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		if _, ok := ev.ArgValue(ArgGoroutines); !ok {
			t.Fatalf("sample missing %s arg: %+v", ArgGoroutines, ev)
		}
		instants = append(instants, ev)
	}
	if len(instants) < 1 {
		t.Fatal("no sample instant in the buffer — final sample dropped?")
	}
	checkOneReadingOneName(t, buf.Events(), instants, reg)
	if hw := reg.GaugeMax("runtime/" + ArgGoroutines); hw < 1 {
		t.Fatalf("gauge runtime/%s high-water = %g, want >= 1", ArgGoroutines, hw)
	}
}

// checkOneReadingOneName asserts that each reading lands once in the trace
// and once in the registry: the sample instants are the only events on
// the runtime track, the last instant's args are the gauges' current
// values, and each gauge's high-water mark is its arg's maximum over all
// instants.
func checkOneReadingOneName(t *testing.T, events, instants []trace.Event, reg *trace.Registry) {
	t.Helper()
	var onTrack int
	for _, ev := range events {
		if ev.Track == trace.RuntimeTrack {
			onTrack++
		}
	}
	if onTrack != len(instants) {
		t.Errorf("%d events on the runtime track for %d samples, want one per tick", onTrack, len(instants))
	}
	gauges := map[string]trace.GaugeSnapshot{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g
	}
	last := instants[len(instants)-1]
	if len(last.Args) != 7 {
		t.Errorf("sample carries %d args, want 7: %+v", len(last.Args), last.Args)
	}
	for _, a := range last.Args {
		g, ok := gauges["runtime/"+a.Key]
		if !ok {
			t.Errorf("no gauge runtime/%s", a.Key)
			continue
		}
		if g.Value != a.Val {
			t.Errorf("gauge runtime/%s = %g, last sample says %g", a.Key, g.Value, a.Val)
		}
		peak := math.Inf(-1)
		for _, ev := range instants {
			if v, _ := ev.ArgValue(a.Key); v > peak {
				peak = v
			}
		}
		if g.HighWater != peak {
			t.Errorf("gauge runtime/%s high-water = %g, samples peak at %g", a.Key, g.HighWater, peak)
		}
	}
}
