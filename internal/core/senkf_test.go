package core

import (
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/trace"
	"senkf/internal/workload"
)

// runBaseline compiles a baseline spec and executes it on the engine — the
// same path internal/baseline's RunPEnKF/RunLEnKF wrap.
func runBaseline(t *testing.T, p Problem, s plan.Spec) [][]float64 {
	t.Helper()
	c, err := plan.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecutePlan(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// setup generates a test problem with member files on disk and returns the
// pieces plus the serial reference analysis.
func setup(t *testing.T, solver enkf.Solver) (Problem, grid.Decomposition, [][]float64) {
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
	cfg := enkf.Config{
		Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed, Solver: solver,
	}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := enkf.SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Net: net}, dec, ref
}

func TestPlanGeometry(t *testing.T) {
	m, _ := grid.NewMesh(24, 12)
	dec, _ := grid.NewDecomposition(m, 4, 2, grid.Radius{Xi: 2, Eta: 2})
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	if pl.ComputeRanks() != 8 || pl.IORanks() != 4 || pl.WorldSize() != 12 {
		t.Errorf("plan geometry: C2=%d C1=%d world=%d", pl.ComputeRanks(), pl.IORanks(), pl.WorldSize())
	}
	if err := pl.Validate(20); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (Plan{Dec: dec, L: 0, NCg: 1}).Validate(20); err == nil {
		t.Error("L=0 accepted")
	}
	if err := (Plan{Dec: dec, L: 4, NCg: 1}).Validate(20); err == nil {
		t.Error("indivisible L accepted")
	}
	if err := (Plan{Dec: dec, L: 3, NCg: 0}).Validate(20); err == nil {
		t.Error("NCg=0 accepted")
	}
	if err := (Plan{Dec: dec, L: 3, NCg: 3}).Validate(20); err == nil {
		t.Error("NCg not dividing N accepted")
	}
}

func TestSEnKFMatchesSerialReference(t *testing.T) {
	for _, solver := range []enkf.Solver{enkf.SolverEnsembleSpace, enkf.SolverModifiedCholesky, enkf.SolverETKF} {
		p, dec, ref := setup(t, solver)
		pl := Plan{Dec: dec, L: 3, NCg: 2}
		got, err := RunSEnKF(p, pl)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if d := enkf.MaxAbsDiffFields(got, ref); d != 0 {
			t.Errorf("%v: S-EnKF differs from serial reference by %g", solver, d)
		}
	}
}

func TestCorrectnessTriangle(t *testing.T) {
	// Serial reference == L-EnKF == P-EnKF == S-EnKF, bit for bit.
	p, dec, ref := setup(t, enkf.SolverEnsembleSpace)

	penkf := runBaseline(t, p, plan.PEnKF(dec, p.Cfg.N))
	if d := enkf.MaxAbsDiffFields(penkf, ref); d != 0 {
		t.Errorf("P-EnKF differs from serial reference by %g", d)
	}

	lenkf := runBaseline(t, p, plan.LEnKF(dec, p.Cfg.N))
	if d := enkf.MaxAbsDiffFields(lenkf, ref); d != 0 {
		t.Errorf("L-EnKF differs from serial reference by %g", d)
	}

	senkf, err := RunSEnKF(p, Plan{Dec: dec, L: 2, NCg: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := enkf.MaxAbsDiffFields(senkf, ref); d != 0 {
		t.Errorf("S-EnKF differs from serial reference by %g", d)
	}
}

// planShapes are the (n_sdx, n_sdy, L, n_cg) layouts the differential tests
// sweep over the workload.TestScale problem.
type planShape struct{ nsdx, nsdy, l, ncg int }

var planShapes = []planShape{
	{4, 2, 1, 1},
	{4, 2, 6, 1},
	{4, 2, 3, 2},
	{2, 2, 2, 5},
	{1, 1, 4, 10},
	{6, 3, 2, 2},
	{2, 4, 3, 4},
}

func TestSEnKFAcrossPlanShapes(t *testing.T) {
	// The analysis must be independent of L, n_cg and the decomposition —
	// and of whether the engine ran under the (idle) recovery policy.
	p, _, ref := setup(t, enkf.SolverEnsembleSpace)
	for _, s := range planShapes {
		dec, err := grid.NewDecomposition(p.Cfg.Mesh, s.nsdx, s.nsdy, p.Cfg.Radius)
		if err != nil {
			t.Fatalf("decomposition %+v: %v", s, err)
		}
		pl := Plan{Dec: dec, L: s.l, NCg: s.ncg}
		got, err := RunSEnKF(p, pl)
		if err != nil {
			t.Fatalf("plan %+v: %v", s, err)
		}
		if d := enkf.MaxAbsDiffFields(got, ref); d != 0 {
			t.Errorf("plan %+v: differs from reference by %g", s, d)
		}
		res, err := RunSEnKFResilient(p, pl, Resilience{})
		if err != nil {
			t.Fatalf("plan %+v, resilient: %v", s, err)
		}
		if d := enkf.MaxAbsDiffFields(res.Fields, got); d != 0 || res.Degraded || res.EffectiveConfig != p.Cfg {
			t.Errorf("plan %+v: healthy resilient run differs from RunSEnKF by %g (degraded %v, effective config %+v)",
				s, d, res.Degraded, res.EffectiveConfig)
		}
	}
}

func TestSEnKFRecordsPhases(t *testing.T) {
	p, dec, _ := setup(t, enkf.SolverEnsembleSpace)
	buf := trace.NewBuffer()
	p.Tr = trace.New(nil, buf)
	if _, err := RunSEnKF(p, Plan{Dec: dec, L: 3, NCg: 2}); err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	io := trace.PhaseBreakdown(events, metrics.IOPrefix)
	if io.Read <= 0 || io.Comm <= 0 {
		t.Errorf("io breakdown %+v", io)
	}
	cp := trace.PhaseBreakdown(events, metrics.ComputePrefix)
	if cp.Compute <= 0 {
		t.Errorf("compute breakdown %+v", cp)
	}
	if got := len(trace.Tracks(events, metrics.IOPrefix)); got != 4 {
		t.Errorf("io procs = %d, want 4", got)
	}
	if got := len(trace.Tracks(events, metrics.ComputePrefix)); got != 8 {
		t.Errorf("compute procs = %d, want 8", got)
	}
}

func TestRunSEnKFValidation(t *testing.T) {
	p, dec, _ := setup(t, enkf.SolverEnsembleSpace)

	bad := p
	bad.Net = nil
	if _, err := RunSEnKF(bad, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("nil network accepted")
	}
	bad = p
	bad.Dir = ""
	if _, err := RunSEnKF(bad, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("empty dir accepted")
	}
	otherMesh, _ := grid.NewMesh(12, 12)
	otherDec, _ := grid.NewDecomposition(otherMesh, 2, 2, p.Cfg.Radius)
	if _, err := RunSEnKF(p, Plan{Dec: otherDec, L: 1, NCg: 1}); err == nil {
		t.Error("mesh mismatch accepted")
	}
	if _, err := RunSEnKF(p, Plan{Dec: dec, L: 5, NCg: 1}); err == nil {
		t.Error("bad layer count accepted")
	}
}

func TestSEnKFMissingFiles(t *testing.T) {
	p, dec, _ := setup(t, enkf.SolverEnsembleSpace)
	p.Dir = t.TempDir() // empty: no member files
	if _, err := RunSEnKF(p, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("missing member files should fail")
	}
}

func TestCorrectnessTriangleWithOffGridObservations(t *testing.T) {
	// The bilinear observation operator must preserve the triangle: an
	// off-grid observation enters a point's analysis iff its full support
	// is in the local box, which every layout restricts identically.
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
	net, err := obs.RandomOffGridNetwork(m, truth, 60, 0.01, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
	ref, err := enkf.SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Cfg: cfg, Dir: dir, Net: net}
	sen, err := RunSEnKF(p, Plan{Dec: dec, L: 3, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := enkf.MaxAbsDiffFields(sen, ref); d != 0 {
		t.Errorf("S-EnKF with off-grid obs differs from reference by %g", d)
	}
	pen := runBaseline(t, p, plan.PEnKF(dec, cfg.N))
	if d := enkf.MaxAbsDiffFields(pen, ref); d != 0 {
		t.Errorf("P-EnKF with off-grid obs differs from reference by %g", d)
	}
}
