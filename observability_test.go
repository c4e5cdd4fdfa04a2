// Trace-derived verification of the paper's evaluation quantities: the
// Figure 9 phase breakdowns and the Figure 11 overlap share are recomputed
// from the raw trace events and asserted against the simulator's Result —
// folded from its private per-rank ledger, tracer on or off — and the
// causality/capacity invariants of the schedules are checked on the same
// trace. A bug in either the instrumentation or the ledger shows up here as
// a mismatch.
package senkf

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/faults"
	"senkf/internal/figures"
	"senkf/internal/metrics"
	"senkf/internal/parfs"
	"senkf/internal/plan"
	"senkf/internal/schedule"
	"senkf/internal/trace"
)

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func assertBreakdownsMatch(t *testing.T, label string, fromTrace, fromResult metrics.Breakdown) {
	t.Helper()
	for _, ph := range []metrics.Phase{metrics.PhaseRead, metrics.PhaseComm, metrics.PhaseCompute, metrics.PhaseWait} {
		if !relClose(fromTrace.Get(ph), fromResult.Get(ph), 1e-6) {
			t.Errorf("%s %s: trace-derived %.12g vs Result %.12g",
				label, ph, fromTrace.Get(ph), fromResult.Get(ph))
		}
	}
}

// TestTracedSEnKFPaperScale runs the auto-tuned S-EnKF schedule at the
// paper's 12,000-processor scale with tracing attached and verifies:
// the Chrome export is valid, loadable JSON that round-trips; the Fig. 9
// breakdowns and Fig. 11 overlap share recomputed from the trace match the
// ledger-derived Result within 1e-6 relative; no stage is computed before
// its last block arrived; and no OST ever serves more requests at once than
// its configured concurrency.
func TestTracedSEnKFPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale traced run skipped in -short mode")
	}
	buf := trace.NewBuffer()
	tr := trace.New(nil, buf)
	reg := trace.NewRegistry()
	tr.SetCounters(reg)
	suite := figures.NewSuite(figures.PaperOptions())
	suite.O.Cfg.Tracer = tr

	res, tuned, err := suite.SEnKFAt(12000)
	if err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	if len(events) == 0 {
		t.Fatal("traced run emitted no events")
	}

	// Figure 9: mean per-processor phase breakdowns from the trace.
	assertBreakdownsMatch(t, "io", trace.MeanPhaseBreakdown(events, metrics.IOPrefix), res.IO)
	assertBreakdownsMatch(t, "compute", trace.MeanPhaseBreakdown(events, metrics.ComputePrefix), res.Compute)

	// Figure 11: overlap share of I/O+comm behind compute, from the trace.
	ioSpans := trace.PhaseSpans(events, metrics.IOPrefix, metrics.PhaseRead, metrics.PhaseComm)
	cpSpans := trace.PhaseSpans(events, metrics.ComputePrefix, metrics.PhaseCompute)
	overlap := metrics.OverlapDuration(ioSpans, cpSpans)
	ioBusy := metrics.SpanTotal(ioSpans)
	if ioBusy == 0 {
		t.Fatal("no I/O phase spans in trace")
	}
	if got := overlap / ioBusy; !relClose(got, res.OverlapFraction, 1e-6) {
		t.Errorf("overlap fraction from trace %.12g vs result %.12g", got, res.OverlapFraction)
	}
	if got := overlap / res.Runtime; !relClose(got, res.OverlapRuntimeFraction, 1e-6) {
		t.Errorf("overlap runtime fraction from trace %.12g vs result %.12g", got, res.OverlapRuntimeFraction)
	}

	// Causality: every stage-l compute span starts at or after the stage-l
	// "ready" instant, on every compute track.
	checked, err := trace.CheckStageOrdering(events)
	if err != nil {
		t.Error(err)
	}
	if want := tuned.Choice.C2() * tuned.Choice.L; checked != want {
		t.Errorf("stage ordering checked %d compute spans, want %d", checked, want)
	}

	// Capacity: per-OST in-flight service spans never exceed the limit.
	mc := trace.MaxConcurrent(events, "ost", trace.CatOST, "service")
	if len(mc) == 0 {
		t.Fatal("no OST service spans in trace")
	}
	for ost, m := range mc {
		if m > suite.O.Cfg.FS.ConcurrencyPerOST {
			t.Errorf("%s served %d requests at once, limit %d", ost, m, suite.O.Cfg.FS.ConcurrencyPerOST)
		}
	}

	// The counter registry agrees with the file system's own accounting.
	if got := reg.CounterValue("parfs.requests"); got != float64(res.FSStats.Requests) {
		t.Errorf("parfs.requests counter %g vs FSStats %d", got, res.FSStats.Requests)
	}
	if got := reg.CounterValue("parfs.seeks"); got != float64(res.FSStats.Seeks) {
		t.Errorf("parfs.seeks counter %g vs FSStats %d", got, res.FSStats.Seeks)
	}
	if got := reg.CounterValue("parfs.bytes"); !relClose(got, res.FSStats.BytesRead, 1e-9) {
		t.Errorf("parfs.bytes counter %g vs FSStats %g", got, res.FSStats.BytesRead)
	}

	// Chrome export: valid JSON that decodes back to the same events.
	var out bytes.Buffer
	if err := buf.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	decoded, err := trace.ReadChrome(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("round trip decoded %d events, emitted %d", len(decoded), len(events))
	}
	// Microsecond quantization bounds the round-trip breakdown error.
	rb := trace.PhaseBreakdown(decoded, metrics.ComputePrefix)
	eb := trace.PhaseBreakdown(events, metrics.ComputePrefix)
	if !relClose(rb.Compute, eb.Compute, 1e-3) {
		t.Errorf("round-trip compute total %.12g vs exact %.12g", rb.Compute, eb.Compute)
	}
}

// TestTracedPEnKFCausality traces the block-reading baseline and asserts
// its single-stage invariant: on every processor, computation starts only
// after the last read has finished; and the trace-derived breakdown matches
// the Result.
func TestTracedPEnKFCausality(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale traced run skipped in -short mode")
	}
	buf := trace.NewBuffer()
	tr := trace.New(nil, buf)
	suite := figures.NewSuite(figures.PaperOptions())
	suite.O.Cfg.Tracer = tr

	res, err := suite.PEnKFAt(2000)
	if err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	checked, err := trace.CheckReadBeforeCompute(events, metrics.ComputePrefix)
	if err != nil {
		t.Error(err)
	}
	if checked != 2000 {
		t.Errorf("read-before-compute checked %d tracks, want 2000", checked)
	}
	assertBreakdownsMatch(t, "compute", trace.MeanPhaseBreakdown(events, metrics.ComputePrefix), res.Compute)
	for ost, m := range trace.MaxConcurrent(events, "ost", trace.CatOST, "service") {
		if m > suite.O.Cfg.FS.ConcurrencyPerOST {
			t.Errorf("%s served %d requests at once, limit %d", ost, m, suite.O.Cfg.FS.ConcurrencyPerOST)
		}
	}
}

// TestRealSEnKFCrossChecksSimulatedAccounting runs the real S-EnKF over
// actual member files and the simulated S-EnKF schedule with the same
// (N, n_sdx, n_sdy, L, n_cg) geometry, and cross-checks the two independent
// accountings: ensio counts the real addressing operations and read
// requests; parfs counts the simulated ones. The schedule determines both —
// one bar read per (reader, file-of-group, stage) — so they must agree
// exactly.
func TestRealSEnKFCrossChecksSimulatedAccounting(t *testing.T) {
	const (
		members = 8
		nsdx    = 4
		nsdy    = 2
		layers  = 2
		ncg     = 2
	)
	mesh, err := NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, 11)
	ens, err := GenerateEnsemble(mesh, truth, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsemble(dir, mesh, ens); err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, 3, 3, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecomposition(mesh, nsdx, nsdy, radius)
	if err != nil {
		t.Fatal(err)
	}

	// Counters accumulate without any span sink attached.
	reg := NewCounterRegistry()
	tr := NewWallTracer()
	tr.SetCounters(reg)
	cfg := Config{Mesh: mesh, Radius: radius, N: members, Seed: 11}
	p := Problem{Cfg: cfg, Dir: dir, Net: net, Tr: tr}
	if _, err := RunSEnKF(p, Plan{Dec: dec, L: layers, NCg: ncg}); err != nil {
		t.Fatal(err)
	}

	// One bar read per (reader, file, stage): ncg·nsdy readers, N/ncg files
	// each, L stages.
	wantReads := ncg * nsdy * (members / ncg) * layers
	realSeeks := reg.CounterValue("ensio.seeks")
	realReads := reg.CounterValue("ensio.reads")
	if realReads != float64(wantReads) {
		t.Errorf("real ensio reads = %g, want %d", realReads, wantReads)
	}
	if realSeeks != float64(wantReads) { // full-width bars: one seek per read
		t.Errorf("real ensio seeks = %g, want %d", realSeeks, wantReads)
	}
	if bytes := reg.CounterValue("ensio.bytes"); bytes <= 0 {
		t.Errorf("real ensio bytes = %g, want > 0", bytes)
	}

	// The same schedule simulated: parfs must count the same requests/seeks.
	simCfg := schedule.Config{
		P: costmodel.Params{
			N: members, NX: 48, NY: 24,
			A: 1e-6, B: 1e-9, C: 1e-6,
			Theta: 1e-9, Xi: 4, Eta: 2, H: 8,
		},
		FS: parfs.Config{
			OSTs:              2,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          1e-9,
			BackboneStreams:   4,
		},
	}
	res, err := schedule.SimulateSEnKF(simCfg, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
	if err != nil {
		t.Fatal(err)
	}
	if res.FSStats.Requests != wantReads {
		t.Errorf("simulated parfs requests = %d, want %d", res.FSStats.Requests, wantReads)
	}
	if res.FSStats.Seeks != int(realSeeks) {
		t.Errorf("simulated parfs seeks = %d, real ensio seeks = %g", res.FSStats.Seeks, realSeeks)
	}

	// The message layer moved every stage block: at least one message per
	// (reader, file, stage, destination column).
	if msgs := reg.CounterValue("mpi.msgs"); msgs < float64(wantReads*nsdx) {
		t.Errorf("mpi.msgs = %g, want >= %d stage messages", msgs, wantReads*nsdx)
	}
	if b := reg.CounterValue("mpi.bytes"); b <= 0 {
		t.Errorf("mpi.bytes = %g, want > 0", b)
	}
}

// TestWireAccountingMatchesTransportTotals is the wire layer's conservation
// invariant, on every algorithm variant: on the real substrate, the edge
// matrix plus the "other" bucket accounts for every message and byte the
// transport counted (mpi.msgs/mpi.bytes); on the simulated substrate, the
// per-OST attribution sums to exactly the file-system model's BytesRead.
func TestWireAccountingMatchesTransportTotals(t *testing.T) {
	const (
		members = 8
		nsdx    = 4
		nsdy    = 2
		layers  = 2
		ncg     = 2
		levels  = 3
	)
	mesh, err := NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, 11)
	ens, err := GenerateEnsemble(mesh, truth, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsemble(dir, mesh, ens); err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, 3, 3, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecomposition(mesh, nsdx, nsdy, radius)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: mesh, Radius: radius, N: members, Seed: 11}

	truths, err := GenerateTruthLevels(mesh, DefaultFieldSpec, levels, 11)
	if err != nil {
		t.Fatal(err)
	}
	mlEns, err := GenerateEnsembleLevels(mesh, truths, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	mlDir := t.TempDir()
	if _, err := WriteEnsembleLevels(mlDir, mesh, mlEns); err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, levels)
	for l := range nets {
		if nets[l], err = NewStridedNetwork(mesh, truths[l], 3, 3, 0.01, 11+uint64(l)); err != nil {
			t.Fatal(err)
		}
	}

	// Real substrate: the collector sees every delivered message; the
	// registry counts every sent one. The engines drain all mailboxes, so
	// the two totals must agree exactly.
	realVariants := []struct {
		name string
		run  func(p, mp Problem) error
	}{
		{"SEnKF", func(p, _ Problem) error {
			_, err := RunSEnKF(p, Plan{Dec: dec, L: layers, NCg: ncg})
			return err
		}},
		{"PEnKF", func(p, _ Problem) error {
			_, err := RunPEnKF(p, dec)
			return err
		}},
		{"LEnKF", func(p, _ Problem) error {
			_, err := RunLEnKF(p, dec)
			return err
		}},
		{"SEnKF-ML", func(_, mp Problem) error {
			_, err := RunSEnKFMultiLevel(mp, Plan{Dec: dec, L: layers, NCg: ncg})
			return err
		}},
		{"PEnKF-ML", func(_, mp Problem) error {
			_, err := RunPEnKFMultiLevel(mp, dec)
			return err
		}},
	}
	for _, v := range realVariants {
		t.Run(v.name, func(t *testing.T) {
			reg := NewCounterRegistry()
			tr := NewWallTracer()
			tr.SetCounters(reg)
			wc := NewWireCollector()
			p := Problem{Cfg: cfg, Dir: dir, Net: net, Tr: tr, Msgs: wc}
			mp := Problem{Cfg: cfg, Dir: mlDir, Nets: nets, Tr: tr, Msgs: wc}
			if err := v.run(p, mp); err != nil {
				t.Fatal(err)
			}
			tot := wc.Matrix().Totals()
			om, ob := wc.Other()
			if got, want := float64(tot.Msgs+om), reg.CounterValue("mpi.msgs"); got != want {
				t.Errorf("wire msgs %g (edges %d + other %d) vs transport %g",
					got, tot.Msgs, om, want)
			}
			if got, want := float64(tot.Bytes+ob), reg.CounterValue("mpi.bytes"); got != want {
				t.Errorf("wire bytes %g (edges %d + other %d) vs transport %g",
					got, tot.Bytes, ob, want)
			}
		})
	}

	// Simulated substrate: the collector's per-OST attribution must sum to
	// exactly what the parallel-file-system model reports having served.
	simCfg := schedule.Config{
		P: costmodel.Params{
			N: members, NX: 48, NY: 24,
			A: 1e-6, B: 1e-9, C: 1e-6,
			Theta: 1e-9, Xi: 4, Eta: 2, H: 8,
		},
		FS: parfs.Config{
			OSTs:              2,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          1e-9,
			BackboneStreams:   4,
		},
	}
	simVariants := []struct {
		name   string
		levels int
		run    func(sc schedule.Config) (SimResult, error)
	}{
		{"sim-SEnKF", 1, func(sc schedule.Config) (SimResult, error) {
			return schedule.SimulateSEnKF(sc, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
		}},
		{"sim-PEnKF", 1, func(sc schedule.Config) (SimResult, error) {
			return schedule.SimulatePEnKF(sc, nsdx, nsdy)
		}},
		{"sim-LEnKF", 1, func(sc schedule.Config) (SimResult, error) {
			return schedule.SimulateLEnKF(sc, nsdx, nsdy)
		}},
		{"sim-SEnKF-ML", levels, func(sc schedule.Config) (SimResult, error) {
			return schedule.SimulateSEnKF(sc, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
		}},
		{"sim-PEnKF-ML", levels, func(sc schedule.Config) (SimResult, error) {
			return schedule.SimulatePEnKF(sc, nsdx, nsdy)
		}},
	}
	for _, v := range simVariants {
		t.Run(v.name, func(t *testing.T) {
			sc := simCfg
			sc.P.Levels = v.levels
			wc := NewWireCollector()
			sc.Msgs = wc
			sc.Reads = wc
			res, err := v.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := wc.OSTBytes(), res.FSStats.BytesRead; !relClose(got, want, 1e-9) {
				t.Errorf("wire OST bytes %g vs parfs BytesRead %g", got, want)
			}
			if res.FSStats.BytesRead <= 0 {
				t.Error("simulated run read no bytes")
			}
		})
	}
}

// TestWireTelemetryKeepsPrimarySinkByteIdentical pins the tee guarantee:
// attaching a wire collector (side events riding EmitSide) must leave the
// primary Chrome trace byte-for-byte identical to an unwired run, while
// the secondary sink sees the deliver/read instants.
func TestWireTelemetryKeepsPrimarySinkByteIdentical(t *testing.T) {
	simCfg := schedule.Config{
		P: costmodel.Params{
			N: 8, NX: 48, NY: 24,
			A: 1e-6, B: 1e-9, C: 1e-6,
			Theta: 1e-9, Xi: 4, Eta: 2, H: 8,
		},
		FS: parfs.Config{
			OSTs:              2,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          1e-9,
			BackboneStreams:   4,
		},
	}
	choice := costmodel.Choice{NSdx: 4, NSdy: 2, L: 2, NCg: 2}

	run := func(wired bool) (string, []TraceEvent) {
		primary := trace.NewBuffer()
		sc := simCfg
		var side *TraceBuffer
		if wired {
			side = trace.NewBuffer()
			tee := NewTraceTee(primary, side)
			wc := NewWireCollector()
			wc.SetSide(tee)
			sc.Msgs = wc
			sc.Reads = wc
			sc.Tracer = trace.New(nil, tee)
			if _, err := schedule.SimulateSEnKF(sc, choice); err != nil {
				t.Fatal(err)
			}
			tee.Flush()
		} else {
			sc.Tracer = trace.New(nil, primary)
			if _, err := schedule.SimulateSEnKF(sc, choice); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := primary.WriteChrome(&out); err != nil {
			t.Fatal(err)
		}
		var sideEvents []TraceEvent
		if side != nil {
			sideEvents = side.Events()
		}
		return out.String(), sideEvents
	}

	plain, _ := run(false)
	wired, side := run(true)
	if plain != wired {
		t.Errorf("primary Chrome trace differs with wire telemetry on (%d vs %d bytes)",
			len(plain), len(wired))
	}
	var delivers, reads int
	for _, ev := range side {
		switch {
		case ev.Cat == trace.CatComm && ev.Name == "deliver":
			delivers++
		case ev.Cat == trace.CatOST && ev.Name == "read":
			reads++
		}
	}
	if delivers == 0 || reads == 0 {
		t.Errorf("secondary sink saw %d delivers and %d reads, want both > 0", delivers, reads)
	}
}

// TestRealAndSimulatedSchedulesShareStructure is the plan engine's central
// invariant: the phase-span DAG of a traced real run is structurally
// identical to the simulated schedule at the same geometry, and both equal
// the DAG the compiled plan prescribes. Wall-clock and virtual timings
// differ — the busy-span chains and helper-thread release points must not.
func TestRealAndSimulatedSchedulesShareStructure(t *testing.T) {
	const (
		members = 8
		nsdx    = 4
		nsdy    = 2
		layers  = 2
		ncg     = 2
	)
	mesh, err := NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, 11)
	ens, err := GenerateEnsemble(mesh, truth, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsemble(dir, mesh, ens); err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, 3, 3, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecomposition(mesh, nsdx, nsdy, radius)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: mesh, Radius: radius, N: members, Seed: 11}
	// The simulated machine over the same geometry: ξ, η become the
	// decomposition radius, so both substrates interpret the same plan.
	simCfg := schedule.Config{
		P: costmodel.Params{
			N: members, NX: 48, NY: 24,
			A: 1e-6, B: 1e-9, C: 1e-6,
			Theta: 1e-9, Xi: 4, Eta: 2, H: 8,
		},
		FS: parfs.Config{
			OSTs:              2,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          1e-9,
			BackboneStreams:   4,
		},
	}

	real := func(t *testing.T, run func(Problem) error) ([]TraceEvent, *WireCollector) {
		t.Helper()
		buf := trace.NewBuffer()
		wc := NewWireCollector()
		if err := run(Problem{Cfg: cfg, Dir: dir, Net: net, Tr: NewWallTracer(buf), Msgs: wc}); err != nil {
			t.Fatal(err)
		}
		return buf.Events(), wc
	}
	simulated := func(t *testing.T, run func(schedule.Config) error) ([]TraceEvent, *WireCollector) {
		t.Helper()
		buf := trace.NewBuffer()
		sc := simCfg
		sc.Tracer = trace.New(nil, buf)
		wc := NewWireCollector()
		sc.Msgs = wc
		sc.Reads = wc
		if err := run(sc); err != nil {
			t.Fatal(err)
		}
		return buf.Events(), wc
	}
	check := func(t *testing.T, spec AlgorithmSpec, realEvents, simEvents []TraceEvent, realWC, simWC *WireCollector) {
		t.Helper()
		cp, err := CompilePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cp.ExpectedDAG()
		if err := DiffDAG(TraceDAG(realEvents), want); err != nil {
			t.Errorf("real vs plan: %v", err)
		}
		if err := DiffDAG(TraceDAG(simEvents), want); err != nil {
			t.Errorf("simulated vs plan: %v", err)
		}
		// Wire telemetry's central invariant: the edge matrix observed on
		// the real transport, the one mirrored by the simulated schedule,
		// and the one derived from the compiled plan alone are bit-identical.
		wantEdges := ExpectedEdges(cp)
		if err := wantEdges.Diff(realWC.Matrix()); err != nil {
			t.Errorf("expected vs real edges: %v", err)
		}
		if err := wantEdges.Diff(simWC.Matrix()); err != nil {
			t.Errorf("expected vs simulated edges: %v", err)
		}
	}

	t.Run("SEnKF", func(t *testing.T) {
		realEvents, realWC := real(t, func(p Problem) error {
			_, err := RunSEnKF(p, Plan{Dec: dec, L: layers, NCg: ncg})
			return err
		})
		simEvents, simWC := simulated(t, func(sc schedule.Config) error {
			_, err := schedule.SimulateSEnKF(sc, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
			return err
		})
		check(t, SEnKFSpec(dec, members, layers, ncg), realEvents, simEvents, realWC, simWC)
	})
	t.Run("PEnKF", func(t *testing.T) {
		realEvents, realWC := real(t, func(p Problem) error {
			_, err := RunPEnKF(p, dec)
			return err
		})
		simEvents, simWC := simulated(t, func(sc schedule.Config) error {
			_, err := schedule.SimulatePEnKF(sc, nsdx, nsdy)
			return err
		})
		check(t, PEnKFSpec(dec, members), realEvents, simEvents, realWC, simWC)
	})
	t.Run("LEnKF", func(t *testing.T) {
		realEvents, realWC := real(t, func(p Problem) error {
			_, err := RunLEnKF(p, dec)
			return err
		})
		simEvents, simWC := simulated(t, func(sc schedule.Config) error {
			_, err := schedule.SimulateLEnKF(sc, nsdx, nsdy)
			return err
		})
		check(t, LEnKFSpec(dec, members), realEvents, simEvents, realWC, simWC)
	})

	// The multilevel variants run on the same engine from the same plans
	// with the level dimension set: the structural DAG must be identical to
	// the single-level one (levels change weights, never shape), on both
	// substrates.
	const levels = 3
	truths, err := GenerateTruthLevels(mesh, DefaultFieldSpec, levels, 11)
	if err != nil {
		t.Fatal(err)
	}
	mlEns, err := GenerateEnsembleLevels(mesh, truths, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	mlDir := t.TempDir()
	if _, err := WriteEnsembleLevels(mlDir, mesh, mlEns); err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, levels)
	for l := range nets {
		if nets[l], err = NewStridedNetwork(mesh, truths[l], 3, 3, 0.01, 11+uint64(l)); err != nil {
			t.Fatal(err)
		}
	}
	realML := func(t *testing.T, run func(Problem) error) ([]TraceEvent, *WireCollector) {
		t.Helper()
		buf := trace.NewBuffer()
		wc := NewWireCollector()
		if err := run(Problem{Cfg: cfg, Dir: mlDir, Nets: nets, Tr: NewWallTracer(buf), Msgs: wc}); err != nil {
			t.Fatal(err)
		}
		return buf.Events(), wc
	}
	simulatedML := func(t *testing.T, run func(schedule.Config) error) ([]TraceEvent, *WireCollector) {
		t.Helper()
		buf := trace.NewBuffer()
		sc := simCfg
		sc.P.Levels = levels
		sc.Tracer = trace.New(nil, buf)
		wc := NewWireCollector()
		sc.Msgs = wc
		sc.Reads = wc
		if err := run(sc); err != nil {
			t.Fatal(err)
		}
		return buf.Events(), wc
	}

	t.Run("SEnKF-ML", func(t *testing.T) {
		realEvents, realWC := realML(t, func(p Problem) error {
			_, err := RunSEnKFMultiLevel(p, Plan{Dec: dec, L: layers, NCg: ncg})
			return err
		})
		simEvents, simWC := simulatedML(t, func(sc schedule.Config) error {
			_, err := schedule.SimulateSEnKF(sc, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
			return err
		})
		check(t, SEnKFSpec(dec, members, layers, ncg).WithLevels(levels), realEvents, simEvents, realWC, simWC)
	})
	t.Run("PEnKF-ML", func(t *testing.T) {
		realEvents, realWC := realML(t, func(p Problem) error {
			_, err := RunPEnKFMultiLevel(p, dec)
			return err
		})
		simEvents, simWC := simulatedML(t, func(sc schedule.Config) error {
			_, err := schedule.SimulatePEnKF(sc, nsdx, nsdy)
			return err
		})
		check(t, PEnKFSpec(dec, members).WithLevels(levels), realEvents, simEvents, realWC, simWC)
	})
}

// TestRealAndSimulatedRecoveryAgree is the fault-side twin of the structural
// test above: one fault plan — stage-based reader deaths and unrecoverable
// member files — applied to both substrates at one geometry. The real
// engine's recovery policy and the simulator's must drop the same members,
// lose the same ranks, hand each dead row to the same reader at the same
// stage, and carry the same traffic on every plan edge: the expected matrix
// minus the dropped members.
func TestRealAndSimulatedRecoveryAgree(t *testing.T) {
	const (
		members = 8
		nsdx    = 4
		nsdy    = 3
		layers  = 2
		ncg     = 2
	)
	mesh, err := NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, 11)
	ens, err := GenerateEnsemble(mesh, truth, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsemble(dir, mesh, ens); err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, 3, 3, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecomposition(mesh, nsdx, nsdy, radius)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompilePlan(SEnKFSpec(dec, members, layers, ncg))
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 loses reader 1 before stage 1 (adopted by reader 2); group 1
	// starts without reader 2 (adopted, wrapping, by reader 0). Member 3
	// (group 1) is missing, member 6 (group 0) corrupt.
	fp := &FaultPlan{
		Deaths: []RankDeath{
			{Group: 0, Reader: 1, BeforeStage: 1},
			{Group: 1, Reader: 2, BeforeStage: 0},
		},
		FileFaults: []FileFault{
			{Member: 3, Kind: faults.FileMissing},
			{Member: 6, Kind: faults.FileCorrupt},
		},
	}
	if err := fp.Apply(dir); err != nil {
		t.Fatal(err)
	}
	wantDropped := []int{3, 6}
	type adoption struct {
		by         string // adopting reader's proc name
		row, stage int
	}
	wantAdoptions := []adoption{{"io/g0/r2", 1, 1}, {"io/g1/r0", 2, 0}}
	// The fault instants both substrates emit, in a comparable form.
	observed := func(events []TraceEvent) (adoptions []adoption, deaths int) {
		for _, ev := range events {
			switch {
			case ev.Cat == trace.CatFault && ev.Name == "rank-death":
				deaths++
			case ev.Cat == trace.CatFault && ev.Name == "failover":
				a := adoption{by: ev.Track}
				for _, arg := range ev.Args {
					switch arg.Key {
					case "row":
						a.row = int(arg.Val)
					case trace.ArgStage:
						a.stage = int(arg.Val)
					}
				}
				adoptions = append(adoptions, a)
			}
		}
		sort.Slice(adoptions, func(i, j int) bool { return adoptions[i].by < adoptions[j].by })
		return adoptions, deaths
	}

	realBuf, realWC := trace.NewBuffer(), NewWireCollector()
	res, err := RunSEnKFResilient(
		Problem{Cfg: Config{Mesh: mesh, Radius: radius, N: members, Seed: 11}, Dir: dir, Net: net, Tr: NewWallTracer(realBuf), Msgs: realWC},
		Plan{Dec: dec, L: layers, NCg: ncg}, Resilience{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	simBuf, simWC := trace.NewBuffer(), NewWireCollector()
	simRes, err := schedule.SimulateSEnKF(schedule.Config{
		P: costmodel.Params{
			N: members, NX: 48, NY: 24,
			A: 1e-6, B: 1e-9, C: 1e-6,
			Theta: 1e-9, Xi: 4, Eta: 2, H: 8,
		},
		FS:     parfs.Config{OSTs: 2, ConcurrencyPerOST: 2, SeekTime: 1e-4, ByteTime: 1e-9, BackboneStreams: 4},
		Tracer: trace.New(nil, simBuf),
		Faults: fp,
		Msgs:   simWC,
	}, costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: layers, NCg: ncg})
	if err != nil {
		t.Fatal(err)
	}

	var realDropped []int
	for _, d := range res.Dropped {
		realDropped = append(realDropped, d.Member)
	}
	if !reflect.DeepEqual(realDropped, wantDropped) || !reflect.DeepEqual(simRes.DroppedMembers, wantDropped) {
		t.Errorf("dropped members: real %v, simulated %v, want %v", realDropped, simRes.DroppedMembers, wantDropped)
	}
	realAdoptions, realDeaths := observed(realBuf.Events())
	simAdoptions, simDeaths := observed(simBuf.Events())
	if realDeaths != len(fp.Deaths) || simDeaths != len(fp.Deaths) || simRes.RankDeaths != len(fp.Deaths) {
		t.Errorf("rank deaths: real %d, simulated %d (Result %d), want %d", realDeaths, simDeaths, simRes.RankDeaths, len(fp.Deaths))
	}
	if !reflect.DeepEqual(realAdoptions, wantAdoptions) || !reflect.DeepEqual(simAdoptions, wantAdoptions) {
		t.Errorf("failovers: real %v, simulated %v, want %v", realAdoptions, simAdoptions, wantAdoptions)
	}
	if simRes.Failovers != len(wantAdoptions) || len(res.Failovers) != len(wantAdoptions) {
		t.Errorf("failover counts: real %d, simulated %d, want %d", len(res.Failovers), simRes.Failovers, len(wantAdoptions))
	}
	for _, f := range res.Failovers {
		got := adoption{by: cp.IOAt(f.Group, f.ToReader).Name, row: f.FromReader, stage: f.Stage}
		if !slices.Contains(wantAdoptions, got) {
			t.Errorf("DegradedResult failover %+v not among %v", f, wantAdoptions)
		}
	}

	// Traffic: every plan edge carries its expected messages minus those of
	// the dropped members, and from its first adopted stage on a dead row's
	// edges leave the reader that serves them — on both substrates alike.
	sender := func(r *plan.IORank, stage int) int {
		for _, a := range wantAdoptions {
			if by := ioRankNamed(cp, a.by); by.Group == r.Group && a.row == r.Row && stage >= a.stage {
				return by.Rank
			}
		}
		return r.Rank
	}
	want := EdgeMatrix{}
	for q := range cp.IO {
		r := &cp.IO[q]
		for _, st := range r.Stages {
			for _, k := range st.Members {
				if slices.Contains(wantDropped, k) {
					continue
				}
				for _, dst := range st.Comm.Dsts {
					want.Record(EdgeKey{Src: sender(r, st.Stage), Dst: dst, Stage: st.Stage}, plan.StageMsgBytes(cp, dst, st.Stage))
				}
			}
		}
	}
	if err := want.Diff(realWC.Matrix()); err != nil {
		t.Errorf("expected-minus-dropped vs real edges: %v", err)
	}
	if err := want.Diff(simWC.Matrix()); err != nil {
		t.Errorf("expected-minus-dropped vs simulated edges: %v", err)
	}
	if err := realWC.Matrix().Diff(simWC.Matrix()); err != nil {
		t.Errorf("real vs simulated edges: %v", err)
	}
	if ExpectedEdges(cp).Totals().Msgs-want.Totals().Msgs != int64(len(wantDropped)*nsdy*nsdx*layers) {
		t.Errorf("want matrix lost %d messages, not the dropped members' %d", ExpectedEdges(cp).Totals().Msgs-want.Totals().Msgs, len(wantDropped)*nsdy*nsdx*layers)
	}
}

// ioRankNamed returns the I/O rank of c with the given proc name.
func ioRankNamed(c *CompiledPlan, name string) *plan.IORank {
	for q := range c.IO {
		if c.IO[q].Name == name {
			return &c.IO[q]
		}
	}
	return nil
}
