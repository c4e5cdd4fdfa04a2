package enkf

import (
	"errors"
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// smallProblem builds a tiny assimilation problem used across tests.
func smallProblem(t *testing.T, solver Solver) (Config, [][]float64, *obs.Network, []float64) {
	t.Helper()
	p := workload.TestScale
	m, err := p.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, p.Seed)
	bg, err := workload.Ensemble(m, truth, p.Members, p.Spread, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, p.ObsStride, p.ObsStride, p.ObsVar, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mesh: m, Radius: p.Radius(), N: p.Members, Seed: p.Seed, Solver: solver,
	}
	return cfg, bg, net, truth
}

func TestConfigValidate(t *testing.T) {
	m, _ := grid.NewMesh(4, 4)
	good := Config{Mesh: m, Radius: grid.Radius{Xi: 1, Eta: 1}, N: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Mesh: grid.Mesh{}, N: 4},
		{Mesh: m, N: 1},
		{Mesh: m, N: 4, Radius: grid.Radius{Xi: -1}},
		{Mesh: m, N: 4, Solver: Solver(9)},
		{Mesh: m, N: 4, Band: -1},
		{Mesh: m, N: 4, Ridge: -1},
		{Mesh: m, N: 4, TaperLength: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBlockAccessors(t *testing.T) {
	b := NewBlock(grid.Box{X0: 2, X1: 5, Y0: 1, Y1: 4}, 3)
	if b.Members() != 3 {
		t.Fatalf("Members = %d", b.Members())
	}
	b.Set(1, 3, 2, 7.5)
	if b.At(1, 3, 2) != 7.5 {
		t.Error("Set/At round trip failed")
	}
	if b.At(0, 3, 2) != 0 {
		t.Error("other member affected")
	}
}

func TestSubBlock(t *testing.T) {
	outer := grid.Box{X0: 0, X1: 6, Y0: 0, Y1: 6}
	b := NewBlock(outer, 2)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			b.Set(0, x, y, float64(10*x+y))
		}
	}
	sb := grid.Box{X0: 2, X1: 5, Y0: 1, Y1: 4}
	sub, err := b.SubBlock(sb)
	if err != nil {
		t.Fatal(err)
	}
	for y := sb.Y0; y < sb.Y1; y++ {
		for x := sb.X0; x < sb.X1; x++ {
			if sub.At(0, x, y) != b.At(0, x, y) {
				t.Fatalf("sub-block mismatch at (%d,%d)", x, y)
			}
		}
	}
	if _, err := b.SubBlock(grid.Box{X0: 4, X1: 8, Y0: 0, Y1: 2}); err == nil {
		t.Error("expected containment error")
	}
}

func TestNoObservationsKeepsBackground(t *testing.T) {
	cfg, bg, _, _ := smallProblem(t, SolverEnsembleSpace)
	full := grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}
	blk := &Block{Box: full, Data: bg}
	xa, err := cfg.AnalyzePoint(blk, nil, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range xa {
		if xa[k] != bg[k][cfg.Mesh.Index(5, 5)] {
			t.Fatalf("member %d changed without observations", k)
		}
	}
}

func TestAnalysisReducesRMSE(t *testing.T) {
	for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky} {
		cfg, bg, net, truth := smallProblem(t, solver)
		xa, err := SerialReference(cfg, bg, net)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		before := RMSE(EnsembleMean(bg), truth)
		after := RMSE(EnsembleMean(xa), truth)
		if !(after < before) {
			t.Errorf("%v: analysis did not reduce RMSE: before %g after %g", solver, before, after)
		}
		t.Logf("%v: RMSE %g -> %g", solver, before, after)
	}
}

func TestTightObservationsPullAnalysisToObservedValues(t *testing.T) {
	// With tiny observation error, the analysis mean at observed points
	// should be very close to the observed values.
	p := workload.TestScale
	m, _ := grid.NewMesh(p.NX, p.NY)
	truth := workload.Truth(m, workload.DefaultFieldSpec, 3)
	bg, err := workload.Ensemble(m, truth, 16, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 4, 4, 1e-8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Radius: grid.Radius{Xi: 2, Eta: 2}, N: 16, Seed: 3}
	xa, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	mean := EnsembleMean(xa)
	for _, o := range net.Obs {
		got := mean[m.Index(o.X, o.Y)]
		if math.Abs(got-o.Value) > 1e-3 {
			t.Fatalf("analysis at observed point (%d,%d) = %g, obs = %g", o.X, o.Y, got, o.Value)
		}
	}
}

func TestLocalizedMatchesGlobalWhenBoxCoversMesh(t *testing.T) {
	// When the local box covers the entire mesh for every point, the
	// per-point localized ensemble-space analysis must coincide with the
	// global formula (Eq. 3).
	m, _ := grid.NewMesh(8, 6)
	truth := workload.Truth(m, workload.DefaultFieldSpec, 9)
	bg, err := workload.Ensemble(m, truth, 10, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 3, 2, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mesh: m, Radius: grid.Radius{Xi: m.NX, Eta: m.NY}, // box always covers mesh
		N: 10, Seed: 9,
	}
	local, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	global, err := GlobalAnalysis(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiffFields(local, global); d > 1e-8 {
		t.Errorf("localized (full box) differs from global analysis by %g", d)
	}
}

func TestAnalyzeBoxMatchesPointwise(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	full := grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}
	blk := &Block{Box: full, Data: bg}
	target := grid.Box{X0: 4, X1: 8, Y0: 3, Y1: 6}
	out, err := cfg.AnalyzeBox(blk, net.Obs, target)
	if err != nil {
		t.Fatal(err)
	}
	for y := target.Y0; y < target.Y1; y++ {
		for x := target.X0; x < target.X1; x++ {
			xa, err := cfg.AnalyzePoint(blk, net.Obs, x, y)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < cfg.N; k++ {
				if out.At(k, x, y) != xa[k] {
					t.Fatalf("AnalyzeBox differs from AnalyzePoint at (%d,%d) member %d", x, y, k)
				}
			}
		}
	}
}

func TestExpansionDataSufficesForSubDomainAnalysis(t *testing.T) {
	// The analysis on a sub-domain computed from only its expansion data
	// must equal the analysis computed from the full field — the
	// domain-localization property everything else builds on.
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	dec, err := grid.NewDecomposition(cfg.Mesh, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	full := grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}
	fullBlk := &Block{Box: full, Data: bg}
	for j := 0; j < dec.NSdy; j++ {
		for i := 0; i < dec.NSdx; i++ {
			sd := dec.SubDomain(i, j)
			exp := dec.Expansion(i, j)
			expBlk, err := fullBlk.SubBlock(exp)
			if err != nil {
				t.Fatal(err)
			}
			fromExp, err := cfg.AnalyzeBox(expBlk, net.InBox(exp), sd)
			if err != nil {
				t.Fatal(err)
			}
			fromFull, err := cfg.AnalyzeBox(fullBlk, net.Obs, sd)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < cfg.N; k++ {
				for idx := range fromExp.Data[k] {
					if fromExp.Data[k][idx] != fromFull.Data[k][idx] {
						t.Fatalf("sub-domain (%d,%d): expansion analysis differs from full-field analysis", i, j)
					}
				}
			}
		}
	}
}

func TestTaperedAnalysisStillReducesRMSE(t *testing.T) {
	cfg, bg, net, truth := smallProblem(t, SolverEnsembleSpace)
	cfg.TaperLength = 1.0
	xa, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	before := RMSE(EnsembleMean(bg), truth)
	after := RMSE(EnsembleMean(xa), truth)
	if !(after < before) {
		t.Errorf("tapered analysis did not reduce RMSE: %g -> %g", before, after)
	}
}

func TestTaperWeights(t *testing.T) {
	cfg := Config{Radius: grid.Radius{Xi: 2, Eta: 2}, TaperLength: 1}
	if w := cfg.taper(5, 5, 5, 5); w != 1 {
		t.Errorf("taper at zero distance = %g, want 1", w)
	}
	w1 := cfg.taper(5, 5, 6, 5)
	w2 := cfg.taper(5, 5, 7, 5)
	if !(w1 > w2) {
		t.Errorf("taper not decreasing: %g then %g", w1, w2)
	}
	cfg.TaperLength = 0
	if w := cfg.taper(5, 5, 7, 7); w != 1 {
		t.Errorf("cut-off taper = %g, want 1", w)
	}
}

func TestSolverString(t *testing.T) {
	if SolverEnsembleSpace.String() != "ensemble-space" {
		t.Error("SolverEnsembleSpace string")
	}
	if SolverModifiedCholesky.String() != "modified-cholesky" {
		t.Error("SolverModifiedCholesky string")
	}
	if Solver(9).String() == "" {
		t.Error("unknown solver string empty")
	}
}

// The reference analyses refuse a background of another member count or
// field length than the configuration, and a nil network, with an
// *InputError. GlobalAnalysis used to return an N-member analysis of fewer
// members, panic on more, and both dereferenced a nil network.
func TestSerialReferenceValidations(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	short := append([][]float64{}, bg...)
	short[3] = short[3][:5]
	for _, tc := range []struct {
		name       string
		background [][]float64
		net        *obs.Network
		want       string
	}{
		{"one member", bg[:1], net, "enkf: 1 background members, config says 20"},
		{"three members too few", bg[:17], net, "enkf: 17 background members, config says 20"},
		{"one member too many", append(bg[:len(bg):len(bg)], bg[0]), net, "enkf: 21 background members, config says 20"},
		{"a short member", short, net, "enkf: member 3 has 5 points, mesh has 288"},
		{"no network", bg, nil, "enkf: no observation network"},
	} {
		for name, analysis := range map[string]func(Config, [][]float64, *obs.Network) ([][]float64, error){
			"SerialReference": SerialReference, "GlobalAnalysis": GlobalAnalysis,
		} {
			out, err := analysis(cfg, tc.background, tc.net)
			var ie *InputError
			if out != nil || !errors.As(err, &ie) || err.Error() != tc.want {
				t.Errorf("%s, %s: %d members and %v, want an *InputError %q", name, tc.name, len(out), err, tc.want)
			}
		}
	}
}

func TestAnalyzePointOutsideBlockFails(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	blk := &Block{Box: grid.Box{X0: 0, X1: 6, Y0: 0, Y1: 6}, Data: nil}
	_ = bg
	if _, err := cfg.AnalyzePoint(blk, net.Obs, 10, 10); err == nil {
		t.Error("expected local-box containment error")
	}
}

func TestRMSEAndMean(t *testing.T) {
	mean := EnsembleMean([][]float64{{1, 2}, {3, 4}})
	if mean[0] != 2 || mean[1] != 3 {
		t.Errorf("mean = %v", mean)
	}
	if r := RMSE([]float64{3, 4}, []float64{0, 0}); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %g", r)
	}
	if !math.IsNaN(RMSE([]float64{1}, []float64{1, 2})) {
		t.Error("RMSE of mismatched lengths should be NaN")
	}
	if EnsembleMean(nil) != nil {
		t.Error("mean of empty ensemble should be nil")
	}
	if MaxAbsDiffFields([][]float64{{1}}, [][]float64{{1}, {2}}) != math.Inf(1) {
		t.Error("MaxAbsDiffFields shape mismatch should be +Inf")
	}
}

func TestInflationIncreasesAnalysisSpread(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	base, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inflation = 1.3
	inflated, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(fields [][]float64) float64 {
		mean := EnsembleMean(fields)
		var s float64
		for _, f := range fields {
			for i, v := range f {
				d := v - mean[i]
				s += d * d
			}
		}
		return s
	}
	if !(spread(inflated) > spread(base)) {
		t.Errorf("inflation did not increase analysis spread: %g vs %g", spread(inflated), spread(base))
	}
}

func TestInflationOneIsIdentity(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	base, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inflation = 1.0
	same, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiffFields(base, same); d != 0 {
		t.Errorf("inflation factor 1 changed the analysis by %g", d)
	}
}

func TestInflationValidation(t *testing.T) {
	cfg, _, _, _ := smallProblem(t, SolverEnsembleSpace)
	cfg.Inflation = -0.5
	if err := cfg.Validate(); err == nil {
		t.Error("negative inflation accepted")
	}
}

func TestInflationPreservesExpansionEquivalence(t *testing.T) {
	// Inflation is applied per local box, so the expansion-data analysis
	// must still equal the full-field analysis — the property the parallel
	// implementations rely on.
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	cfg.Inflation = 1.2
	dec, err := grid.NewDecomposition(cfg.Mesh, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	full := grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}
	fullBlk := &Block{Box: full, Data: bg}
	sd := dec.SubDomain(1, 1)
	exp := dec.Expansion(1, 1)
	expBlk, err := fullBlk.SubBlock(exp)
	if err != nil {
		t.Fatal(err)
	}
	fromExp, err := cfg.AnalyzeBox(expBlk, net.InBox(exp), sd)
	if err != nil {
		t.Fatal(err)
	}
	fromFull, err := cfg.AnalyzeBox(fullBlk, net.Obs, sd)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cfg.N; k++ {
		for i := range fromExp.Data[k] {
			if fromExp.Data[k][i] != fromFull.Data[k][i] {
				t.Fatal("inflated expansion analysis differs from full-field analysis")
			}
		}
	}
}

func TestOffGridObservationsReduceRMSE(t *testing.T) {
	p := workload.TestScale
	m, _ := grid.NewMesh(p.NX, p.NY)
	truth := workload.Truth(m, workload.DefaultFieldSpec, p.Seed)
	bg, err := workload.Ensemble(m, truth, p.Members, p.Spread, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.RandomOffGridNetwork(m, truth, 80, 0.01, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky} {
		cfg := Config{Mesh: m, Radius: p.Radius(), N: p.Members, Seed: p.Seed, Solver: solver}
		xa, err := SerialReference(cfg, bg, net)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		before := RMSE(EnsembleMean(bg), truth)
		after := RMSE(EnsembleMean(xa), truth)
		if !(after < before) {
			t.Errorf("%v: off-grid analysis did not reduce RMSE: %g -> %g", solver, before, after)
		}
	}
}

func TestOffGridExpansionEquivalence(t *testing.T) {
	// The expansion-sufficiency property must hold with bilinear H: an
	// observation participates in a point's analysis iff its full support
	// is inside the local box, which is inside the expansion.
	p := workload.TestScale
	m, _ := grid.NewMesh(p.NX, p.NY)
	truth := workload.Truth(m, workload.DefaultFieldSpec, p.Seed)
	bg, err := workload.Ensemble(m, truth, p.Members, p.Spread, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.RandomOffGridNetwork(m, truth, 60, 0.01, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Radius: p.Radius(), N: p.Members, Seed: p.Seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	fullBlk := &Block{Box: full, Data: bg}
	for j := 0; j < dec.NSdy; j++ {
		for i := 0; i < dec.NSdx; i++ {
			sd := dec.SubDomain(i, j)
			exp := dec.Expansion(i, j)
			expBlk, err := fullBlk.SubBlock(exp)
			if err != nil {
				t.Fatal(err)
			}
			fromExp, err := cfg.AnalyzeBox(expBlk, net.InBox(exp), sd)
			if err != nil {
				t.Fatal(err)
			}
			fromFull, err := cfg.AnalyzeBox(fullBlk, net.Obs, sd)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < cfg.N; k++ {
				for idx := range fromExp.Data[k] {
					if fromExp.Data[k][idx] != fromFull.Data[k][idx] {
						t.Fatalf("sub-domain (%d,%d): off-grid expansion analysis differs", i, j)
					}
				}
			}
		}
	}
}

func TestTightOffGridObservationsMatchInterpolation(t *testing.T) {
	// With near-zero observation error, H applied to the analysis mean
	// approaches the observed values.
	p := workload.TestScale
	m, _ := grid.NewMesh(p.NX, p.NY)
	truth := workload.Truth(m, workload.DefaultFieldSpec, 4)
	bg, err := workload.Ensemble(m, truth, 20, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.RandomOffGridNetwork(m, truth, 40, 1e-8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Radius: grid.Radius{Xi: 3, Eta: 3}, N: 20, Seed: 4}
	xa, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	mean := EnsembleMean(xa)
	// Exact agreement is not expected: each support point is analysed with
	// its own local box, so nearby observations can enter one support
	// point's update and not another's. The fit must still be far tighter
	// than the background error (~0.1-0.2 here).
	for _, o := range net.Obs {
		got := o.InterpolateField(m, mean)
		if math.Abs(got-o.Value) > 5e-2 {
			t.Fatalf("H·mean at (%d+%g, %d+%g) = %g, obs = %g",
				o.X, o.OffsetX, o.Y, o.OffsetY, got, o.Value)
		}
	}
}
