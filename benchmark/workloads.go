package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"senkf/internal/baseline"
	"senkf/internal/ckpt"
	"senkf/internal/core"
	"senkf/internal/costmodel"
	"senkf/internal/cycle"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/figures"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/schedule"
	"senkf/internal/trace"
	gen "senkf/internal/workload"
)

// A workload is one closed-loop client of the program: it is set up from a
// seed and then runs its ops back to back, each checked outside the timed
// section.
type workload interface {
	// setup generates every input from seed, writes its files under dir,
	// and computes what check compares against. Its wall time is setup_s.
	setup(seed uint64, dir string) error
	// op runs operation i and returns its output. sp is nil in an untraced
	// run; in a traced run the op records its calls into layers under it.
	op(i int, sp *opSpans) (any, error)
	// check verifies the output of op i. verified is false when op i is not
	// one of the ops this workload verifies.
	check(i int, out any) (verified bool, err error)
	// finish runs the end-of-run checks.
	finish() error
}

// Workload sizes. The full sizes are the ones BENCHMARK.json describes; the
// smoke sizes exist so that the smoke test exercises every code path of the
// harness in a few seconds.
const (
	ensembleSpread = 1.5
	obsVariance    = 0.01
)

func newWorkload(name string, smoke bool) (workload, error) {
	switch name {
	case "dense":
		// Compute-bound: wide local boxes, dense observations, one level.
		p := realParams{nx: 72, ny: 36, levels: 1, members: 32, xi: 4, eta: 2, obsStride: 2,
			nsdx: 4, nsdy: 2, layers: 3, ncg: 2}
		if smoke {
			p.nx, p.ny, p.members = 24, 12, 8
		}
		return &realWorkload{p: p}, nil
	case "stream":
		// Data-path-bound: much state, two levels, tiny local boxes, almost
		// no observations.
		p := realParams{nx: 240, ny: 120, levels: 2, members: 64, xi: 0, eta: 1, obsStride: 40,
			nsdx: 4, nsdy: 2, layers: 4, ncg: 2}
		if smoke {
			p.nx, p.ny, p.members, p.obsStride = 32, 16, 8, 8
		}
		return &realWorkload{p: p}, nil
	case "cycle":
		p := cycleParams{nx: 128, ny: 64, members: 16, xi: 1, eta: 1, obsStride: 4,
			nsdx: 4, nsdy: 2, steps: 3, checkEvery: 10}
		if smoke {
			p.nx, p.ny, p.members, p.checkEvery = 24, 12, 8, 1
		}
		return &cycleWorkload{p: p}, nil
	case "simcell":
		if smoke {
			o := figures.QuickOptions()
			return &simWorkload{cfg: o.Cfg, np: 60, tc: o.Constraints}, nil
		}
		return &simWorkload{cfg: schedule.DefaultConfig(), np: 500,
			tc: costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// --- dense, stream: one full S-EnKF analysis over member files -------------

type realParams struct {
	nx, ny, levels, members int
	xi, eta, obsStride      int
	nsdx, nsdy, layers, ncg int
}

type realWorkload struct {
	p        realParams
	prob     plan.Problem
	dec      grid.Decomposition
	compiled *plan.Compiled
	// background is [level][member][]field, the layout SerialReference
	// takes; refs is the per-level serial reference every op must equal.
	background [][][]float64
	refs       [][][]float64

	events int // trace events the engine emitted over the traced ops
}

// setupInputs is setup without the serial reference: what the layer probes
// need to drive the layers on this workload's own inputs.
func (w *realWorkload) setupInputs(seed uint64, dir string) error {
	p := w.p
	mesh, err := grid.NewMesh(p.nx, p.ny)
	if err != nil {
		return err
	}
	radius, err := grid.NewRadius(p.xi, p.eta)
	if err != nil {
		return err
	}
	truths, err := gen.TruthLevels(mesh, gen.DefaultFieldSpec, p.levels, seed)
	if err != nil {
		return err
	}
	members, err := gen.EnsembleLevels(mesh, truths, p.members, ensembleSpread, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := ensio.WriteEnsembleLevels(dir, mesh, members); err != nil {
		return err
	}
	nets := make([]*obs.Network, p.levels)
	for l := range nets {
		nets[l], err = obs.StridedNetwork(mesh, truths[l], p.obsStride, p.obsStride, obsVariance, seed+uint64(l))
		if err != nil {
			return err
		}
	}
	w.prob = plan.Problem{
		Cfg: enkf.Config{Mesh: mesh, Radius: radius, N: p.members, Seed: seed, Solver: enkf.SolverEnsembleSpace},
		Dir: dir,
	}
	// A one-level problem takes the classic single-network path.
	if p.levels == 1 {
		w.prob.Net = nets[0]
	} else {
		w.prob.Nets = nets
	}
	w.dec, err = grid.NewDecomposition(mesh, p.nsdx, p.nsdy, radius)
	if err != nil {
		return err
	}
	w.compiled, err = plan.Compile(plan.SEnKF(w.dec, p.members, p.layers, p.ncg).WithLevels(p.levels))
	if err != nil {
		return err
	}
	w.background = make([][][]float64, p.levels)
	for l := range w.background {
		w.background[l] = make([][]float64, p.members)
		for k := range members {
			w.background[l][k] = members[k][l]
		}
	}
	return nil
}

func (w *realWorkload) setup(seed uint64, dir string) error {
	if err := w.setupInputs(seed, dir); err != nil {
		return err
	}
	w.refs = make([][][]float64, w.p.levels)
	for l := range w.refs {
		ref, err := enkf.SerialReference(w.prob.Cfg, w.background[l], w.prob.NetAt(l))
		if err != nil {
			return err
		}
		w.refs[l] = ref
	}
	return nil
}

func (w *realWorkload) op(i int, sp *opSpans) (any, error) {
	if sp == nil {
		return core.ExecutePlanLevels(w.prob, w.compiled)
	}
	// The op is a single call into core, so its children are the phase
	// spans the engine already emits through Problem.Tr.
	buf := trace.NewBuffer()
	prob := w.prob
	prob.Tr = trace.New(nil, buf)
	start := sp.now()
	out, err := core.ExecutePlanLevels(prob, w.compiled)
	events := buf.Events()
	for _, ev := range events {
		if ev.Cat == trace.CatPhase && ev.Ph == trace.PhaseSpan {
			sp.add("core."+ev.Name, start+ev.Ts, start+ev.Ts+ev.Dur)
		}
	}
	w.events += len(events)
	return out, err
}

func (w *realWorkload) check(_ int, out any) (bool, error) {
	got, ok := out.([][][]float64)
	if !ok || len(got) != len(w.refs) {
		return true, fmt.Errorf("analysis has %d levels, want %d", len(got), len(w.refs))
	}
	for l := range w.refs {
		if len(got[l]) != len(w.refs[l]) {
			return true, fmt.Errorf("level %d has %d members, want %d", l, len(got[l]), len(w.refs[l]))
		}
		if d := enkf.MaxAbsDiffFields(got[l], w.refs[l]); d != 0 || math.IsNaN(d) {
			return true, fmt.Errorf("level %d differs from the serial reference by %g", l, d)
		}
	}
	return true, nil
}

func (w *realWorkload) finish() error { return nil }

// --- cycle: forecast, write, block-read P-EnKF analysis, checkpoint --------

type cycleParams struct {
	nx, ny, members int
	xi, eta         int
	obsStride       int
	nsdx, nsdy      int
	steps           int
	checkEvery      int // every checkEvery-th op is verified against SerialReference
}

// analysisCapture is what one cycle's analyzer saw and returned, kept for
// the check after the op.
type analysisCapture struct {
	cfg        enkf.Config
	background [][]float64
	net        *obs.Network
	analysis   [][]float64
}

type cycleWorkload struct {
	p       cycleParams
	cfg     cycle.Config
	dec     grid.Decomposition
	ensDir  string
	ckptDir string
	cp      *cycle.Checkpointer
	ckHook  cycle.Hook
	state   cycle.State // live state; each op advances it by one cycle
}

func (w *cycleWorkload) setup(seed uint64, dir string) error {
	p := w.p
	mesh, err := grid.NewMesh(p.nx, p.ny)
	if err != nil {
		return err
	}
	radius, err := grid.NewRadius(p.xi, p.eta)
	if err != nil {
		return err
	}
	fm, err := model.New(mesh, 0.4, 0.2, 0.02, 1.0)
	if err != nil {
		return err
	}
	truth := gen.Truth(mesh, gen.DefaultFieldSpec, seed)
	ensemble, err := gen.Ensemble(mesh, truth, p.members, ensembleSpread, seed)
	if err != nil {
		return err
	}
	w.dec, err = grid.NewDecomposition(mesh, p.nsdx, p.nsdy, radius)
	if err != nil {
		return err
	}
	w.ensDir, w.ckptDir = filepath.Join(dir, "ens"), filepath.Join(dir, "ckpt")
	for _, d := range []string{w.ensDir, w.ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	w.cfg = cycle.Config{
		Enkf: enkf.Config{Mesh: mesh, Radius: radius, N: p.members, Solver: enkf.SolverModifiedCholesky,
			Band: 2, Ridge: 1e-6, Inflation: 1.1},
		Model:         fm,
		StepsPerCycle: p.steps,
		ObsStrideX:    p.obsStride, ObsStrideY: p.obsStride,
		ObsVar:       1e-4,
		ModelErrorSD: 0.2,
		Seed:         seed,
	}
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	w.cp = &cycle.Checkpointer{Dir: w.ckptDir, Every: 1, Keep: 2, Seed: seed}
	w.ckHook = w.cp.Hook(w.cfg)
	w.state = cycle.State{Truth: truth, Ensemble: ensemble}
	return nil
}

func (w *cycleWorkload) op(i int, sp *opSpans) (any, error) {
	var capt *analysisCapture
	var next cycle.State
	// Everything RunFrom does before it calls the analyzer is the forecast:
	// three model integrations, model error, observation of the truth.
	endForecast := sp.child("cycle.forecast")
	// The analyzer is cycle.PEnKFAnalyzer spelled out, so that the write
	// and the analysis get a span each.
	analyzer := func(cfg enkf.Config, background [][]float64, net *obs.Network) ([][]float64, error) {
		endForecast()
		done := sp.child("ensio.write")
		_, err := ensio.WriteEnsemble(w.ensDir, cfg.Mesh, background)
		done()
		if err != nil {
			return nil, err
		}
		done = sp.child("core.penkf")
		analysis, err := baseline.RunPEnKF(plan.Problem{Cfg: cfg, Dir: w.ensDir, Net: net}, w.dec)
		done()
		if err == nil && i%w.p.checkEvery == 0 {
			capt = &analysisCapture{cfg: cfg, background: background, net: net, analysis: analysis}
		}
		return analysis, err
	}
	hook := func(st cycle.State) error {
		done := sp.child("ckpt.write")
		err := w.ckHook(st)
		done()
		next = st
		return err
	}
	if _, err := cycle.RunFrom(w.cfg, w.state, w.state.NextCycle+1, analyzer, nil, hook); err != nil {
		return nil, err
	}
	w.state = next
	return capt, nil
}

func (w *cycleWorkload) check(i int, out any) (bool, error) {
	due := i%w.p.checkEvery == 0
	capt, _ := out.(*analysisCapture)
	if capt == nil {
		if due {
			return false, fmt.Errorf("op %d: the analyzer was never called, nothing to verify", i)
		}
		return false, nil
	}
	ref, err := enkf.SerialReference(capt.cfg, capt.background, capt.net)
	if err != nil {
		return true, err
	}
	if len(capt.analysis) != len(ref) {
		return true, fmt.Errorf("analysis has %d members, want %d", len(capt.analysis), len(ref))
	}
	if d := enkf.MaxAbsDiffFields(capt.analysis, ref); d != 0 || math.IsNaN(d) {
		return true, fmt.Errorf("P-EnKF analysis differs from the serial reference by %g", d)
	}
	return true, nil
}

// spinUpCycles is how many cycles the filter gets before its RMSEs must be
// in order; the first few cycles of a small ensemble need not be.
const spinUpCycles = 20

// finish checks that the newest checkpoint restores the live state bit for
// bit and that assimilation helped: analysis < background < free run.
func (w *cycleWorkload) finish() error {
	l, skipped, err := ckpt.Latest(w.ckptDir)
	if err != nil {
		return err
	}
	if l == nil || len(skipped) > 0 {
		return fmt.Errorf("no valid newest checkpoint (skipped %d)", len(skipped))
	}
	got, err := cycle.Restore(l)
	if err != nil {
		return err
	}
	live := w.state
	if got.NextCycle != live.NextCycle || len(got.History) != len(live.History) {
		return fmt.Errorf("checkpoint resumes at cycle %d with %d stats, live state is at %d with %d",
			got.NextCycle, len(got.History), live.NextCycle, len(live.History))
	}
	for i := range live.History {
		if got.History[i] != live.History[i] {
			return fmt.Errorf("checkpointed history differs at cycle %d", i)
		}
	}
	if d := enkf.MaxAbsDiffFields([][]float64{got.Truth}, [][]float64{live.Truth}); d != 0 {
		return fmt.Errorf("checkpointed truth differs by %g", d)
	}
	if d := enkf.MaxAbsDiffFields(got.Ensemble, live.Ensemble); d != 0 {
		return fmt.Errorf("checkpointed ensemble differs by %g", d)
	}
	if d := enkf.MaxAbsDiffFields(got.Free, live.Free); d != 0 {
		return fmt.Errorf("checkpointed control ensemble differs by %g", d)
	}
	last := live.History[len(live.History)-1]
	if len(live.History) >= spinUpCycles && !(last.AnalysisRMSE < last.BackgroundRMSE && last.BackgroundRMSE < last.FreeRMSE) {
		return fmt.Errorf("after %d cycles the RMSEs are out of order: analysis %g, background %g, free run %g",
			len(live.History), last.AnalysisRMSE, last.BackgroundRMSE, last.FreeRMSE)
	}
	return nil
}

// --- simcell: one paper-scale what-if on the simulated machine -------------

type simOutcome struct {
	choice       costmodel.Choice
	senkf, penkf float64 // virtual seconds
}

type simWorkload struct {
	cfg schedule.Config
	np  int
	tc  costmodel.TuneConstraints
	// first is the outcome computed in set-up; the simulator is
	// deterministic, so every op must reproduce it. The seed plays no part:
	// this workload has no generated data.
	first simOutcome
}

func (w *simWorkload) setup(uint64, string) error {
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	out, err := w.op(0, nil)
	if err != nil {
		return err
	}
	w.first = out.(simOutcome)
	return nil
}

func (w *simWorkload) op(_ int, sp *opSpans) (any, error) {
	done := sp.child("costmodel.autotune")
	tuned, ok := w.cfg.P.AutoTuneConstrained(w.np, 0.001, w.tc)
	done()
	if !ok {
		return nil, fmt.Errorf("auto-tuner found no configuration for np=%d", w.np)
	}
	done = sp.child("schedule.senkf")
	rs, err := schedule.SimulateSEnKF(w.cfg, tuned.Choice)
	done()
	if err != nil {
		return nil, err
	}
	done = sp.child("schedule.penkf")
	nsdx, nsdy, err := schedule.ChooseDecomposition(w.cfg.P, w.np)
	var rp schedule.Result
	if err == nil {
		rp, err = schedule.SimulatePEnKF(w.cfg, nsdx, nsdy)
	}
	done()
	if err != nil {
		return nil, err
	}
	return simOutcome{choice: tuned.Choice, senkf: rs.Runtime, penkf: rp.Runtime}, nil
}

func (w *simWorkload) check(_ int, out any) (bool, error) {
	got, ok := out.(simOutcome)
	if !ok {
		return true, fmt.Errorf("op returned %T", out)
	}
	for _, v := range []float64{got.senkf, got.penkf} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return true, fmt.Errorf("virtual runtime %g is not a positive finite number", v)
		}
	}
	if got != w.first {
		return true, fmt.Errorf("outcome %+v differs from the first %+v: the simulator is not deterministic", got, w.first)
	}
	return true, nil
}

func (w *simWorkload) finish() error { return nil }
