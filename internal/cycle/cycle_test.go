package cycle

import (
	"math"
	"testing"

	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/model"
	"senkf/internal/workload"
)

func testSetup(t *testing.T) (Config, []float64, [][]float64) {
	t.Helper()
	ps := workload.TestScale
	m, err := ps.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	adv, err := model.New(m, 0.4, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, ps.Seed)
	ensemble, err := workload.Ensemble(m, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Enkf: enkf.Config{
			Mesh: m, Radius: ps.Radius(), N: ps.Members,
			Inflation: 1.1,
		},
		Model:         adv,
		StepsPerCycle: 3,
		ObsStrideX:    2, ObsStrideY: 2,
		ObsVar:       1e-4,
		ModelErrorSD: 0.2,
		Seed:         ps.Seed,
	}
	return cfg, truth, ensemble
}

func TestValidation(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	bad := cfg
	bad.Model = nil
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("nil model accepted")
	}
	bad = cfg
	bad.StepsPerCycle = 0
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("zero steps accepted")
	}
	bad = cfg
	bad.ObsVar = 0
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("zero obs variance accepted")
	}
	bad = cfg
	bad.ObsStrideX = 0
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("zero stride accepted")
	}
	bad = cfg
	bad.ModelErrorSD = -1
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("negative model error accepted")
	}
	if _, err := Run(cfg, truth, ens, 0, SerialAnalyzer()); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := Run(cfg, truth, ens, 2, nil); err == nil {
		t.Error("nil analyzer accepted")
	}
	if _, err := Run(cfg, truth, ens[:3], 2, SerialAnalyzer()); err == nil {
		t.Error("wrong member count accepted")
	}
	otherMesh, _ := grid.NewMesh(8, 8)
	bad = cfg
	bad.Model, _ = model.New(otherMesh, 0.1, 0.1, 0.01, 1)
	if _, err := Run(bad, truth, ens, 2, SerialAnalyzer()); err == nil {
		t.Error("mesh mismatch accepted")
	}
}

func TestAssimilationBeatsFreeRun(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	const cycles = 6
	hist, err := Run(cfg, truth, ens, cycles, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cycles {
		t.Fatalf("got %d cycles", len(hist))
	}
	last := hist[cycles-1]
	if !(last.AnalysisRMSE < last.FreeRMSE) {
		t.Errorf("assimilation (%g) not better than free run (%g) after %d cycles",
			last.AnalysisRMSE, last.FreeRMSE, cycles)
	}
	// Every cycle's analysis improves on its own background.
	improved := 0
	for _, st := range hist {
		if st.AnalysisRMSE < st.BackgroundRMSE {
			improved++
		}
	}
	if improved < cycles-1 {
		t.Errorf("analysis improved the background in only %d of %d cycles", improved, cycles)
	}
	t.Logf("cycle %d: background %.4f analysis %.4f free %.4f spread %.4f",
		last.Cycle, last.BackgroundRMSE, last.AnalysisRMSE, last.FreeRMSE, last.Spread)
}

func TestCycledRMSEBounded(t *testing.T) {
	// The hallmark of working cycled DA: the analysis error stays bounded
	// (here: the late-cycle mean does not exceed the first analysis error)
	// while the free run drifts.
	cfg, truth, ens := testSetup(t)
	hist, err := Run(cfg, truth, ens, 8, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	var lateMean float64
	for _, st := range hist[4:] {
		lateMean += st.AnalysisRMSE
	}
	lateMean /= float64(len(hist) - 4)
	if lateMean > hist[0].AnalysisRMSE*1.5 {
		t.Errorf("cycled analysis error grew: first %g, late mean %g", hist[0].AnalysisRMSE, lateMean)
	}
}

func TestDeterministic(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	a, err := Run(cfg, truth, ens, 3, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, truth, ens, 3, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSEnKFAnalyzerMatchesSerial(t *testing.T) {
	// Cycling through the real parallel S-EnKF (files + goroutine ranks)
	// must produce the exact same history as the serial reference.
	cfg, truth, ens := testSetup(t)
	serial, err := Run(cfg, truth, ens, 3, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(cfg.Enkf.Mesh, 4, 2, cfg.Enkf.Radius)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfg, truth, ens, 3, SEnKFAnalyzer(core.Problem{Dir: t.TempDir()}, core.Plan{Dec: dec, L: 3, NCg: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cycle %d: serial %+v vs S-EnKF %+v", i, serial[i], parallel[i])
		}
	}
}

func TestPEnKFAnalyzerMatchesSerial(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	serial, err := Run(cfg, truth, ens, 2, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(cfg.Enkf.Mesh, 2, 2, cfg.Enkf.Radius)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfg, truth, ens, 2, PEnKFAnalyzer(core.Problem{Dir: t.TempDir()}, dec))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cycle %d: serial %+v vs P-EnKF %+v", i, serial[i], parallel[i])
		}
	}
}

func TestCycleSeedsDiffer(t *testing.T) {
	cfg, _, _ := testSetup(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := cfg.cycleSeed(i)
		if seen[s] {
			t.Fatalf("seed collision at cycle %d", i)
		}
		seen[s] = true
	}
}

func TestSpreadHelper(t *testing.T) {
	if spread([][]float64{{1, 2}}) != 0 {
		t.Error("single-member spread should be 0")
	}
	got := spread([][]float64{{0, 0}, {2, 2}})
	// std of {0,2} with n-1 normalization = sqrt(2)
	if got < 1.41 || got > 1.42 {
		t.Errorf("spread = %g", got)
	}
}

// meanRMSE is the RMSE of the ensemble mean bit for bit, over generated
// ensembles and truths (values spread over many binades, so the rounding of
// the sum, the scaled mean and the squares all show); no members is NaN.
func TestMeanRMSEIsRMSEOfEnsembleMean(t *testing.T) {
	s := linalg.NewStream(0x3EA7)
	for trial := 0; trial < 200; trial++ {
		n, pts := 1+s.Intn(20), 1+s.Intn(300)
		value := func() float64 { return s.Norm() * math.Exp2(float64(s.Intn(40)-20)) }
		fields := make([][]float64, n)
		for k := range fields {
			fields[k] = make([]float64, pts)
			for i := range fields[k] {
				fields[k][i] = value()
			}
		}
		truth := make([]float64, pts)
		for i := range truth {
			truth[i] = value()
		}
		got, want := meanRMSE(fields, truth), enkf.RMSE(enkf.EnsembleMean(fields), truth)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (N %d, %d points): %v, the RMSE of the mean is %v", trial, n, pts, got, want)
		}
	}
	if got := meanRMSE(nil, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("no members: %v, want NaN", got)
	}
}

// RunFrom reads its input state in place and never writes it: after a run
// with a checkpointing hook — the caller's State bits, the control ensemble
// included, and its history are what they were.
func TestRunFromLeavesInputBitIdentical(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	free, err := workload.Ensemble(cfg.Enkf.Mesh, truth, len(ens), 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]Stats, 1, 4) // spare capacity RunFrom must not append into
	hist[0] = Stats{Cycle: 0, AnalysisRMSE: 0.5}
	st := State{NextCycle: 1, Truth: truth, Ensemble: ens, Free: free, History: hist}
	fields := append(append([][]float64{truth}, ens...), free...)
	want := make([][]uint64, len(fields))
	for i, f := range fields {
		for _, v := range f {
			want[i] = append(want[i], math.Float64bits(v))
		}
	}
	cp := &Checkpointer{Dir: t.TempDir(), Seed: cfg.Seed}
	if _, err := RunFrom(cfg, st, 3, SerialAnalyzer(), nil, cp.Hook(cfg)); err != nil {
		t.Fatal(err)
	}
	for i, f := range fields {
		for j, v := range f {
			if math.Float64bits(v) != want[i][j] {
				t.Fatalf("field %d (0 truth, then ensemble, then control) point %d changed", i, j)
			}
		}
	}
	if got := hist[:cap(hist)]; got[0] != (Stats{Cycle: 0, AnalysisRMSE: 0.5}) || got[1] != (Stats{}) {
		t.Fatalf("the caller's history changed: %+v", got)
	}
}
