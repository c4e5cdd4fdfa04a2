package cycle

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"senkf/internal/ckpt"
	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/workload"
)

// The forecast pass fans its jobs out over GOMAXPROCS workers that keep their
// scratch from job to job; each job depends on its key alone, so the result
// must be the plain serial loop's bit for bit — Run, then SmoothNoise added
// to each member — whatever the worker count.
func TestForecastEqualsSerialLoopForAnyGOMAXPROCS(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	m := cfg.Enkf.Mesh
	const cycleIdx = 3
	free, err := workload.Ensemble(m, truth, len(ens), 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, steps := range []int{1, 2, 3} {
		cfg.StepsPerCycle = steps
		wantTruth, err := cfg.Model.Run(truth, steps)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, 0, 1+2*len(ens))
		want = append(want, wantTruth)
		for which, fields := range [][][]float64{ens, free} {
			for k := range fields {
				f, err := cfg.Model.Run(fields[k], steps)
				if err != nil {
					t.Fatal(err)
				}
				noise := workload.SmoothNoise(m, cfg.ModelErrorSD, cfg.Seed, 0x30DE1, cycleIdx, which, k)
				for i := range f {
					f[i] += noise[i]
				}
				want = append(want, f)
			}
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			scratch := make([][]float64, runtime.GOMAXPROCS(0))
			gotTruth, gotEns, gotFree, err := cfg.forecast(scratch, cycleIdx, truth, ens, free)
			if err != nil {
				t.Fatal(err)
			}
			got := append(append([][]float64{gotTruth}, gotEns...), gotFree...)
			for j := range want {
				for i := range want[j] {
					if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
						t.Fatalf("%d steps, GOMAXPROCS %d: job %d (0 truth, then ensemble, then control) point %d is %g, serial loop gives %g",
							steps, procs, j, i, got[j][i], want[j][i])
					}
				}
			}
		}
	}
}

// A malformed field fails the cycle with the error of the lowest failing
// forecast job, worded as the separate truth, ensemble and control forecasts
// worded it, whatever the worker count.
func TestForecastReportsLowestFailingJob(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	bad := append([][]float64(nil), ens...)
	bad[9] = bad[9][:7]
	free := append([][]float64(nil), ens...)
	free[4] = nil
	cases := []struct {
		truth     []float64
		ens, free [][]float64
		want      string
	}{
		{truth[:5], bad, free, "truth forecast: model: field has 5 points"},
		{truth, bad, free, "ensemble forecast: model: member 9: model: field has 7 points"},
		{truth, ens, free, "control forecast: model: member 4: model: field has 0 points"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for round := 0; round < 10; round++ {
				_, err := RunFrom(cfg, State{Truth: tc.truth, Ensemble: tc.ens, Free: tc.free}, 1, SerialAnalyzer(), nil, nil)
				if want := "cycle 0: " + tc.want; err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("GOMAXPROCS %d: err = %v, want %q", procs, err, want)
				}
			}
		}
	}
}

// TestCycleAllocationBudget bounds what one forecast–analysis cycle with a
// fsynced ensemble write and a checkpoint allocates, in multiples of one
// ensemble state (N·points·8 bytes), at GOMAXPROCS 2: the worker count sets
// how much forecast scratch a cycle makes. About 3.6 states today. The
// forecast's results are two (ensemble plus control; the truth adds 1/N) and
// the analysis result one. The rest is small: the forecast workers' scratch,
// one mesh and its noise tables each (0.13 for two workers); the
// observations and their perturbations (0.2); the engine's workspace growth
// and centring (0.2); opening the member files (0.1). The member files and
// the checkpoint are encoded into pooled images and the engine reads its
// blocks into pooled buffers. So a fresh model-error field per member would
// cost two states more (6.2 before the forecast was one pass), and a fresh
// image per write three, and either regression fails here, in an ordinary
// test, not only in the benchmark's 2% bound. (Not under the race detector,
// whose sync.Pool drops a quarter of what it is given.)
func TestCycleAllocationBudget(t *testing.T) {
	const (
		nx, ny, n = 128, 64, 16
		budget    = 4.3 // ensemble states per cycle; 3.5–4.0 measured
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, err := grid.NewMesh(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := model.New(m, 0.4, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	radius := grid.Radius{Xi: 1, Eta: 1}
	dec, err := grid.NewDecomposition(m, 4, 2, radius)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, 11)
	ensemble, err := workload.Ensemble(m, truth, n, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Enkf: enkf.Config{Mesh: m, Radius: radius, N: n, Solver: enkf.SolverModifiedCholesky,
			Band: 2, Ridge: 1e-6, Inflation: 1.1},
		Model:         adv,
		StepsPerCycle: 3,
		ObsStrideX:    4, ObsStrideY: 4,
		ObsVar:       1e-4,
		ModelErrorSD: 0.2,
		Seed:         11,
	}
	ckptDir := t.TempDir()
	cp := &Checkpointer{Dir: ckptDir, Every: 1, Keep: 2, Seed: 11}
	ckHook := cp.Hook(cfg)
	analyzer := PEnKFAnalyzer(core.Problem{Dir: t.TempDir()}, dec)
	state := State{Truth: truth, Ensemble: ensemble}
	oneCycle := func() {
		t.Helper()
		hook := func(st State) error {
			state = st
			return ckHook(st)
		}
		if _, err := RunFrom(cfg, state, state.NextCycle+1, analyzer, nil, hook); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up, which is also the check that the cycles measured do the whole
	// job: the checkpoint of the last one restores the live state.
	oneCycle()
	oneCycle()
	const cycles = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		oneCycle()
	}
	runtime.ReadMemStats(&after)
	l, skipped, err := ckpt.Latest(ckptDir)
	if err != nil || l == nil || len(skipped) != 0 {
		t.Fatalf("no valid newest checkpoint: %+v, skipped %v, err %v", l, skipped, err)
	}
	got, err := Restore(l)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextCycle != state.NextCycle || enkf.MaxAbsDiffFields(got.Ensemble, state.Ensemble) != 0 ||
		enkf.MaxAbsDiffFields(got.Free, state.Free) != 0 {
		t.Fatalf("checkpoint of cycle %d does not restore the live state at cycle %d", got.NextCycle, state.NextCycle)
	}

	ensembleState := float64(n * m.Points() * 8)
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	t.Logf("%.2f MB per cycle for a %.2f MB ensemble: %.2f states", perCycle/1e6, ensembleState/1e6, perCycle/ensembleState)
	if perCycle > budget*ensembleState && !raceEnabled {
		t.Errorf("one cycle allocates %.2f ensemble states (%.2f MB), budget %.1f", perCycle/ensembleState, perCycle/1e6, budget)
	}
}
