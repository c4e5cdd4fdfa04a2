package core

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/monitor"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/trace"
	"senkf/internal/wire"
	"senkf/internal/workload"
)

// resilientSetup mirrors setup but also returns the background ensemble so
// degraded runs can be checked against a survivor-only serial reference.
func resilientSetup(t *testing.T) (Problem, grid.Decomposition, [][]float64) {
	t.Helper()
	ps := workload.TestScale
	m, err := ps.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, ps.Seed)
	bg, err := workload.Ensemble(m, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsemble(dir, m, bg); err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Net: net}, dec, bg
}

// survivorReference computes the serial analysis over the surviving
// members with the effective (reweighted) configuration.
func survivorReference(t *testing.T, p Problem, bg [][]float64, res *DegradedResult) [][]float64 {
	t.Helper()
	sub := make([][]float64, 0, len(res.Survivors))
	for _, k := range res.Survivors {
		sub = append(sub, bg[k])
	}
	ref, err := enkf.SerialReference(res.EffectiveConfig, sub, p.Net)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestResilientNilPlanBitMatches pins the hot-path contract: with no fault
// plan the resilient runner must reproduce RunSEnKF bit for bit.
func TestResilientNilPlanBitMatches(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("healthy run marked degraded: %+v", res)
	}
	if len(res.Survivors) != p.Cfg.N || len(res.Dropped) != 0 {
		t.Errorf("healthy run: survivors %v dropped %v", res.Survivors, res.Dropped)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("resilient healthy run differs from RunSEnKF by %g", d)
	}
	if res.EffectiveConfig != p.Cfg {
		t.Errorf("healthy effective config changed: %+v", res.EffectiveConfig)
	}
}

// TestResilientEndToEndDegraded is the ISSUE acceptance scenario: one OST
// outage window (recovered through retry) plus one corrupted member file.
// The run must complete and return a DegradedResult whose fields match a
// serial reference over the surviving N−1 members.
func TestResilientEndToEndDegraded(t *testing.T) {
	p, dec, bg := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	plan := &faults.Plan{
		Seed: 7,
		OSTs: 4, // member k lives on OST k%4 for hook purposes
		OSTWindows: []faults.OSTWindow{
			{OST: 2, Start: 0, End: 1, Factor: 0}, // outage: first attempt fails, retry recovers
		},
		FileFaults: []faults.FileFault{
			{Member: 3, Kind: faults.FileCorrupt},
		},
	}
	if err := plan.Apply(p.Dir); err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl, Resilience{Faults: plan})
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if !res.Degraded {
		t.Error("run with a corrupted member not marked degraded")
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != 3 || res.Dropped[0].Reason != "corrupt" {
		t.Fatalf("Dropped = %+v, want member 3 / corrupt", res.Dropped)
	}
	if len(res.Survivors) != p.Cfg.N-1 {
		t.Fatalf("survivors = %d, want %d", len(res.Survivors), p.Cfg.N-1)
	}
	for _, k := range res.Survivors {
		if k == 3 {
			t.Fatal("corrupted member listed as survivor")
		}
	}
	if res.EffectiveConfig.N != p.Cfg.N-1 {
		t.Errorf("effective N = %d, want %d", res.EffectiveConfig.N, p.Cfg.N-1)
	}
	wantInfl := math.Sqrt(float64(p.Cfg.N-1) / float64(p.Cfg.N-2))
	if math.Abs(res.EffectiveConfig.Inflation-wantInfl) > 1e-15 {
		t.Errorf("effective inflation = %g, want %g", res.EffectiveConfig.Inflation, wantInfl)
	}
	ref := survivorReference(t, p, bg, res)
	if d := enkf.MaxAbsDiffFields(res.Fields, ref); d > 1e-12 {
		t.Errorf("degraded analysis differs from survivor reference by %g", d)
	}
}

// TestResilientReaderDeathFailsOver kills, on every plan shape with a second
// reader to fail over to, each reader of each group before each stage in
// turn: the dead reader's bar rows must be adopted by the group's next live
// reader and the analysis must still bit-match the healthy run — failover
// changes who reads, never what is read.
func TestResilientReaderDeathFailsOver(t *testing.T) {
	p, _, _ := resilientSetup(t)
	for _, s := range planShapes {
		if s.nsdy < 2 {
			continue
		}
		dec, err := grid.NewDecomposition(p.Cfg.Mesh, s.nsdx, s.nsdy, p.Cfg.Radius)
		if err != nil {
			t.Fatalf("decomposition %+v: %v", s, err)
		}
		pl := Plan{Dec: dec, L: s.l, NCg: s.ncg}
		base, err := RunSEnKF(p, pl)
		if err != nil {
			t.Fatalf("plan %+v: %v", s, err)
		}
		for g := 0; g < s.ncg; g++ {
			for reader := 0; reader < s.nsdy; reader++ {
				for stage := 0; stage < s.l; stage++ {
					death := faults.RankDeath{Group: g, Reader: reader, BeforeStage: stage}
					name := fmt.Sprintf("plan %+v, %+v", s, death)
					res, err := RunSEnKFResilient(p, pl, Resilience{Faults: &faults.Plan{Deaths: []faults.RankDeath{death}}})
					if err != nil {
						t.Fatalf("%s: reader death deadlocked or failed: %v", name, err)
					}
					if !res.Degraded {
						t.Errorf("%s: failover run not marked degraded", name)
					}
					want := Failover{Group: g, FromReader: reader, ToReader: (reader + 1) % s.nsdy, Stage: stage}
					if len(res.Failovers) != 1 || res.Failovers[0] != want {
						t.Fatalf("%s: Failovers = %+v, want exactly %+v", name, res.Failovers, want)
					}
					// The original fixed case, spelled out rather than derived.
					if s == (planShape{4, 2, 3, 2}) && death == (faults.RankDeath{Group: 0, Reader: 1, BeforeStage: 1}) &&
						res.Failovers[0] != (Failover{0, 1, 0, 1}) {
						t.Errorf("%s: failover record %+v, want Failover{0, 1, 0, 1}", name, res.Failovers[0])
					}
					if len(res.Dropped) != 0 || len(res.Survivors) != p.Cfg.N {
						t.Errorf("%s: failover dropped members: %+v", name, res)
					}
					// Every member still assimilated: the analysis is unchanged.
					if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
						t.Errorf("%s: failover analysis differs from healthy run by %g", name, d)
					}
				}
			}
		}
	}
}

// TestResilientMissingAndTruncated drops two members for different
// reasons and checks both the classification and the survivor analysis.
func TestResilientMissingAndTruncated(t *testing.T) {
	p, dec, bg := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	if err := os.Remove(ensio.MemberPath(p.Dir, 1)); err != nil {
		t.Fatal(err)
	}
	tp := ensio.MemberPath(p.Dir, 6)
	fi, err := os.Stat(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tp, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl, Resilience{})
	if err != nil {
		t.Fatalf("run with missing+truncated members failed outright: %v", err)
	}
	got := map[int]string{}
	for _, d := range res.Dropped {
		got[d.Member] = d.Reason
	}
	if got[1] != "missing" || got[6] != "truncated" || len(got) != 2 {
		t.Fatalf("Dropped = %+v, want member 1 missing and member 6 truncated", res.Dropped)
	}
	if len(res.Survivors) != p.Cfg.N-2 {
		t.Fatalf("survivors = %d, want %d", len(res.Survivors), p.Cfg.N-2)
	}
	ref := survivorReference(t, p, bg, res)
	if d := enkf.MaxAbsDiffFields(res.Fields, ref); d > 1e-12 {
		t.Errorf("degraded analysis differs from survivor reference by %g", d)
	}
}

// TestResilientMinMembersFloor verifies the run aborts cleanly (no hang,
// actionable error) when fewer than two members survive: all but one member
// file are missing.
func TestResilientMinMembersFloor(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	for k := 1; k < p.Cfg.N; k++ {
		if err := os.Remove(ensio.MemberPath(p.Dir, k)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := RunSEnKFResilient(p, pl, Resilience{})
	if err == nil {
		t.Fatal("run on one surviving member succeeded")
	}
	if !strings.Contains(err.Error(), "need at least 2") {
		t.Errorf("unhelpful member-floor error: %v", err)
	}
}

// TestResilientRejectsSimOnlyPlans: time-based deaths have no meaning in
// real execution and must be rejected up front, not silently ignored.
func TestResilientRejectsSimOnlyPlans(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	plan := &faults.Plan{Deaths: []faults.RankDeath{
		{Group: 0, Reader: 0, At: 0.5},
	}}
	if _, err := RunSEnKFResilient(p, pl, Resilience{Faults: plan}); err == nil {
		t.Error("time-based death plan accepted by real runner")
	}
	bad := &faults.Plan{Deaths: []faults.RankDeath{
		{Group: 5, Reader: 0, BeforeStage: 0}, // group out of range
	}}
	if _, err := RunSEnKFResilient(p, pl, Resilience{Faults: bad}); err == nil {
		t.Error("out-of-range death plan accepted")
	}
}

// TestResilientTransientRecovery: a transient fault within the retry
// budget must not drop the member — and the result stays bit-identical.
func TestResilientTransientRecovery(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{FileFaults: []faults.FileFault{
		{Member: 2, Kind: faults.FileTransient, Count: 2}, // budget is 3
	}}
	res, err := RunSEnKFResilient(p, pl, Resilience{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Errorf("recoverable transient dropped a member: %+v", res.Dropped)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("transient-recovered run differs from healthy run by %g", d)
	}
	plan = &faults.Plan{FileFaults: []faults.FileFault{
		{Member: 2, Kind: faults.FileTransient, Count: 10}, // exceeds budget
	}}
	res, err = RunSEnKFResilient(p, pl, Resilience{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != 2 || res.Dropped[0].Reason != "io" {
		t.Errorf("budget-exceeding transient: Dropped = %+v, want member 2 / io", res.Dropped)
	}
}

// The tests below pin what the resilient path gained by running through the
// one engine instead of a copy of it: run observers, stage-tagged spans and
// release instants (hence live plan conformance), Problem.Nets, straggler
// injection, and member-space tags a wire collector can invert.

type countingObserver struct{ begins, ends int }

func (o *countingObserver) BeginRun(*plan.Compiled) { o.begins++ }
func (o *countingObserver) EndRun(err error) error  { o.ends++; return err }

func TestResilientNotifiesRunObserver(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	var o countingObserver
	p.Obs = &o
	if _, err := RunSEnKFResilient(p, Plan{Dec: dec, L: 3, NCg: 2}, Resilience{}); err != nil {
		t.Fatal(err)
	}
	if o.begins != 1 || o.ends != 1 {
		t.Errorf("observer saw %d BeginRun / %d EndRun, want 1 / 1", o.begins, o.ends)
	}
}

// structuralEvents counts a trace's phase spans and ready/computed release
// instants by (track, name, stage) — the part of a trace the plan determines.
func structuralEvents(events []trace.Event) map[string]int {
	sig := map[string]int{}
	for _, ev := range events {
		span := ev.Ph == trace.PhaseSpan && ev.Cat == trace.CatPhase
		release := ev.Ph == trace.PhaseInstant && ev.Cat == trace.CatStage && (ev.Name == "ready" || ev.Name == "computed")
		if !span && !release {
			continue
		}
		stage := -1.0
		if v, ok := ev.ArgValue(trace.ArgStage); ok {
			stage = v
		}
		sig[fmt.Sprintf("%s %s stage %g", ev.Track, ev.Name, stage)]++
	}
	return sig
}

func TestResilientHealthyTraceMatchesPlain(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}

	plain := trace.NewBuffer()
	p.Tr = trace.New(nil, plain)
	if _, err := RunSEnKF(p, pl); err != nil {
		t.Fatal(err)
	}

	m := monitor.New(monitor.Options{})
	defer m.Close()
	resilient := trace.NewBuffer()
	p.Tr = trace.New(nil, m.Tee(resilient))
	p.Obs = m
	if _, err := RunSEnKFResilient(p, pl, Resilience{}); err != nil {
		t.Fatal(err)
	}

	want, got := structuralEvents(plain.Events()), structuralEvents(resilient.Events())
	if len(want) == 0 {
		t.Fatal("plain run emitted no structural events")
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d in the resilient trace, %d in the plain one", k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: %d in the resilient trace, none in the plain one", k, n)
		}
	}
	cf := m.Status().Conformance
	if cf.MatchedSpans == 0 || cf.MatchedSpans != cf.ExpectedSpans || cf.DivergenceCount != 0 {
		t.Errorf("monitor: %d/%d spans conformant, %d divergences %v",
			cf.MatchedSpans, cf.ExpectedSpans, cf.DivergenceCount, cf.Divergences)
	}
}

func TestResilientAcceptsNets(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	p.Nets, p.Net = []*obs.Network{p.Net}, nil
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("resilient run over Problem.Nets differs from RunSEnKF by %g", d)
	}
}

// TestResilientStragglerDilated injects a Problem.Faults straggler on one
// I/O rank: the resilient path must announce it and dilate its busy phases
// exactly as the plain path does.
func TestResilientStragglerDilated(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	const proc, factor = "io/g0/r0", 100
	p.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Proc: proc, Factor: factor}}}
	buf := trace.NewBuffer()
	p.Tr = trace.New(nil, buf)
	if _, err := RunSEnKFResilient(p, pl, Resilience{}); err != nil {
		t.Fatal(err)
	}
	announced, beats := 0, 0
	reads := map[string]float64{} // total read time per I/O track
	for _, ev := range buf.Events() {
		switch {
		case ev.Cat == trace.CatFault && ev.Track == proc && ev.Name == "straggler":
			announced++
		case ev.Cat == trace.CatFault && ev.Track == proc && ev.Name == "straggle":
			beats++
		case ev.Ph == trace.PhaseSpan && ev.Cat == trace.CatPhase && ev.Name == metrics.PhaseRead.String():
			reads[ev.Track] += ev.Dur
		}
	}
	if announced != 1 {
		t.Errorf("%d straggler announcements on %s, want 1", announced, proc)
	}
	if want := 2 * pl.L; beats != want {
		t.Errorf("%d dilation beats on %s, want %d (a read and a comm phase per stage)", beats, proc, want)
	}
	// Against the fastest peer: a peer descheduled mid-read proves nothing.
	fastest := math.Inf(1)
	for track, d := range reads {
		if track != proc {
			fastest = math.Min(fastest, d)
		}
	}
	if reads[proc] < 10*fastest {
		t.Errorf("%s read for %gs, its fastest peer for %gs: not dilated ×%d", proc, reads[proc], fastest, factor)
	}
}

// stageTagAudit forwards every message to a wire collector and checks what
// the collector cannot see once it has folded members away: which member a
// stage tag inverts to, and what the out-of-space tags are.
type stageTagAudit struct {
	*wire.Collector
	t       *testing.T
	spec    plan.Spec
	dropped int
	gathers atomic.Int64
}

func (a *stageTagAudit) BeginMessages(c *plan.Compiled) {
	a.spec = c.Spec
	a.Collector.BeginMessages(c)
}

func (a *stageTagAudit) OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int) {
	a.Collector.OnMessage(src, dst, tag, bytes, sentAt, deliveredAt, depth)
	switch stage, member, _, ok := a.spec.InvertTag(tag); {
	case ok && member == a.dropped:
		a.t.Errorf("stage %d message %d -> %d (tag %d) inverts to dropped member %d", stage, src, dst, tag, member)
	case !ok && tag >= resultTag:
		a.gathers.Add(1)
	case !ok && tag >= 0:
		a.t.Errorf("message %d -> %d with tag %d is neither stage data, a collective nor the result gather", src, dst, tag)
	}
}

// TestResilientDegradedWireAttribution drops one corrupted member and checks
// that the wire collector still attributes every message correctly: tags are
// in member space whatever the membership, so Spec.InvertTag holds.
func TestResilientDegradedWireAttribution(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	const dropped = 3
	fp := &faults.Plan{FileFaults: []faults.FileFault{{Member: dropped, Kind: faults.FileCorrupt}}}
	if err := fp.Apply(p.Dir); err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(pl.Spec(p.Cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	p.Tr = trace.New(nil)
	p.Tr.SetCounters(reg)
	audit := &stageTagAudit{Collector: wire.NewCollector(), t: t, dropped: dropped}
	p.Msgs = audit
	res, err := RunSEnKFResilient(p, pl, Resilience{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != dropped {
		t.Fatalf("Dropped = %+v, want member %d", res.Dropped, dropped)
	}
	if got, want := audit.gathers.Load(), int64(c.NumCompute()-1); got != want {
		t.Errorf("%d result-gather messages, want %d", got, want)
	}

	// Every plan edge carries its expected traffic minus the dropped members
	// of the sending group.
	want := plan.ExpectedEdges(c)
	for q := range c.IO {
		r := &c.IO[q]
		lost := int64(0)
		for _, k := range r.Members {
			if k == dropped {
				lost++
			}
		}
		for _, st := range r.Stages {
			for _, dst := range st.Comm.Dsts {
				k := plan.EdgeKey{Src: r.Rank, Dst: dst, Stage: st.Stage}
				es := want[k]
				es.Msgs -= lost
				es.Bytes -= lost * plan.StageMsgBytes(c, dst, st.Stage)
				want[k] = es
			}
		}
	}
	got := audit.Matrix()
	if err := got.Diff(want); err != nil {
		t.Errorf("degraded edge matrix: %v", err)
	}

	// Conservation: edges + other is everything the transport carried.
	tot := got.Totals()
	om, ob := audit.Other()
	if got, want := float64(tot.Msgs+om), reg.CounterValue("mpi.msgs"); got != want {
		t.Errorf("wire msgs %g (edges %d + other %d) vs transport %g", got, tot.Msgs, om, want)
	}
	if got, want := float64(tot.Bytes+ob), reg.CounterValue("mpi.bytes"); got != want {
		t.Errorf("wire bytes %g (edges %d + other %d) vs transport %g", got, tot.Bytes, ob, want)
	}
}
