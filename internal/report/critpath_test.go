package report

import (
	"math"
	"testing"

	"senkf/internal/trace"
)

func phase(track, name string, start, dur float64, args ...trace.Arg) trace.Event {
	return trace.Event{Track: track, Cat: trace.CatPhase, Name: name,
		Ph: trace.PhaseSpan, Ts: start, Dur: dur, Args: args}
}

func stageArg(l int) trace.Arg { return trace.Arg{Key: trace.ArgStage, Val: float64(l)} }

func within(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// A reader → scatter → compute chain: the path must follow the compute
// span back through the comm that released it into the read that fed the
// comm, and its segments must tile the full end-to-end interval.
func TestExtractFollowsReleaseChain(t *testing.T) {
	events := []trace.Event{
		phase("io/g0/r0", "read", 0, 2),
		phase("io/g0/r0", "comm", 2, 1),
		phase("comp/x0y0", "wait", 0, 3),
		phase("comp/x0y0", "compute", 3, 5),
	}
	p, err := extract(phaseSpans(events))
	if err != nil {
		t.Fatal(err)
	}
	if !within(p.Start, 0) || !within(p.End, 8) {
		t.Fatalf("path bounds [%g, %g], want [0, 8]", p.Start, p.End)
	}
	if !within(p.Total(), 8) {
		t.Fatalf("Total() = %g, want 8 (must equal End-Start)", p.Total())
	}
	want := []struct {
		track, name string
	}{
		{"io/g0/r0", "read"},
		{"io/g0/r0", "comm"},
		{"comp/x0y0", "compute"},
	}
	if len(p.Segments) != len(want) {
		t.Fatalf("got %d segments %v, want %d", len(p.Segments), p.Segments, len(want))
	}
	for i, w := range want {
		if p.Segments[i].Track != w.track || p.Segments[i].Name != w.name {
			t.Errorf("segment %d = %s/%s, want %s/%s",
				i, p.Segments[i].Track, p.Segments[i].Name, w.track, w.name)
		}
	}
	attr := p.Attribution()
	if !within(attr["io/read"], 2) || !within(attr["io/comm"], 1) || !within(attr["comp/compute"], 5) {
		t.Fatalf("attribution = %v", attr)
	}
	// The wait span overlaps the chain but must not be attributed: every
	// second goes to exactly one activity.
	var sum float64
	for _, v := range attr {
		sum += v
	}
	if !within(sum, 8) {
		t.Fatalf("attribution sums to %g, want 8", sum)
	}
}

// A gap no span covers is bridged by a synthetic blocked segment, keeping
// the tiling exact.
func TestExtractBridgesGaps(t *testing.T) {
	events := []trace.Event{
		phase("io/g0/r0", "read", 0, 2),
		// nothing happens in [2, 3]: queued on an unmodelled resource
		phase("comp/x0y0", "compute", 3, 4),
	}
	p, err := extract(phaseSpans(events))
	if err != nil {
		t.Fatal(err)
	}
	if !within(p.Total(), 7) {
		t.Fatalf("Total() = %g, want 7", p.Total())
	}
	var blocked float64
	for _, s := range p.Segments {
		if s.Name == BlockedName {
			blocked += s.Duration()
		}
	}
	if !within(blocked, 1) {
		t.Fatalf("blocked time = %g, want 1 (the [2,3] gap)", blocked)
	}
}

// Truncated spans (negative duration, left behind by ranks that died
// mid-phase) must neither anchor the walk nor derail it.
func TestExtractIgnoresTruncatedSpans(t *testing.T) {
	events := []trace.Event{
		phase("io/g0/r0", "read", 0, 2),
		phase("io/g0/r1", "read", 100, -100), // dead rank: open span closed at death
		phase("comp/x0y0", "compute", 2, 3),
	}
	p, err := extract(phaseSpans(events))
	if err != nil {
		t.Fatal(err)
	}
	if !within(p.End, 5) {
		t.Fatalf("path ends at %g, want 5 (the truncated span must not anchor)", p.End)
	}
	if !within(p.Total(), 5) {
		t.Fatalf("Total() = %g, want 5", p.Total())
	}
}

func TestExtractEmptyTrace(t *testing.T) {
	if _, err := extract(phaseSpans(nil)); err == nil {
		t.Fatal("want error on empty trace")
	}
	// Instants alone are not a critical path either.
	events := []trace.Event{{Track: "model", Cat: trace.CatModel, Name: "prediction", Ph: trace.PhaseInstant}}
	if _, err := extract(phaseSpans(events)); err == nil {
		t.Fatal("want error on span-free trace")
	}
}

// Deterministic anchor among ties: the longest last-ending span wins.
func TestExtractAnchorTieBreak(t *testing.T) {
	events := []trace.Event{
		phase("comp/x1y0", "compute", 4, 4),
		phase("comp/x0y0", "compute", 6, 2),
	}
	p, err := extract(phaseSpans(events))
	if err != nil {
		t.Fatal(err)
	}
	lastSeg := p.Segments[len(p.Segments)-1]
	if lastSeg.Track != "comp/x1y0" {
		t.Fatalf("anchor = %s, want comp/x1y0 (longest of the ties)", lastSeg.Track)
	}
}

func TestStageOverlaps(t *testing.T) {
	events := []trace.Event{
		// Stage 0 I/O is exposed (no compute yet), stage 1 fully hidden.
		phase("io/g0/r0", "read", 0, 2, stageArg(0)),
		phase("io/g0/r0", "read", 2, 2, stageArg(1)),
		phase("comp/x0y0", "compute", 2, 4, stageArg(0)),
	}
	stages := stageOverlaps(phaseSpans(events))
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2: %v", len(stages), stages)
	}
	if stages[0].Stage != 0 || !within(stages[0].Efficiency, 0) {
		t.Errorf("stage 0 = %+v, want efficiency 0", stages[0])
	}
	if stages[1].Stage != 1 || !within(stages[1].Efficiency, 1) {
		t.Errorf("stage 1 = %+v, want efficiency 1", stages[1])
	}
	if e := PipelineEfficiency(stages); !within(e, 1) {
		t.Errorf("PipelineEfficiency = %g, want 1", e)
	}
	// Untagged I/O spans: no stage accounting at all.
	if got := stageOverlaps(phaseSpans([]trace.Event{phase("io/g0/r0", "read", 0, 1)})); got != nil {
		t.Errorf("untagged spans produced stages: %v", got)
	}
	// No phase spans at all: no stage accounting either.
	if got := stageOverlaps(phaseSpans(nil)); got != nil {
		t.Errorf("span-free trace produced stages: %v", got)
	}
	// No stages >= 1: a single-stage run has no pipeline to be inefficient.
	if e := PipelineEfficiency([]StageOverlap{{Stage: 0, IOBusy: 5}}); e != 1 {
		t.Errorf("single-stage PipelineEfficiency = %g, want 1", e)
	}
}
