package cycle

import (
	"math"
	"runtime"
	"testing"

	"senkf/internal/ckpt"
	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/workload"
)

// addModelError fans members out over GOMAXPROCS workers; each member's
// noise depends on its key alone, so the result must be the plain serial
// loop's bit for bit, whatever the worker count.
func TestAddModelErrorEqualsSerialLoopForAnyGOMAXPROCS(t *testing.T) {
	cfg, _, ens := testSetup(t)
	m := cfg.Enkf.Mesh
	const sd, cycleIdx, which = 0.2, 3, 1
	want := make([][]float64, len(ens))
	for k := range ens {
		want[k] = append([]float64(nil), ens[k]...)
		noise := workload.SmoothNoise(m, sd, cfg.Seed, 0x30DE1, cycleIdx, which, k)
		for i := range want[k] {
			want[k][i] += noise[i]
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := make([][]float64, len(ens))
		for k := range ens {
			got[k] = append([]float64(nil), ens[k]...)
		}
		addModelError(m, got, sd, cfg.Seed, cycleIdx, which)
		for k := range want {
			for i := range want[k] {
				if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("GOMAXPROCS %d: member %d point %d is %g, serial loop gives %g", procs, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}

// TestCycleAllocationBudget bounds what one forecast–analysis cycle with a
// fsynced ensemble write and a checkpoint allocates, in multiples of one
// ensemble state (N·points·8 bytes). About 15 states today, of which the
// copies of the run state account for ten: RunFrom's private copy, the
// forecast's results, the model-error fields and the checkpointer's snapshot
// are two states each (ensemble plus control), the analysis result and the
// engine's blocks one each. The 49 member files the cycle writes come out of
// ensio's pooled images; a fresh buffer per file would cost three states
// more (19 before the writer built images at all, when the checkpoint also
// read every file back to hash it), so that regression fails here, in an
// ordinary test, not only in the benchmark's 2% bound. (Not under the race
// detector, whose sync.Pool drops a quarter of what it is given.)
func TestCycleAllocationBudget(t *testing.T) {
	const (
		nx, ny, n = 128, 64, 16
		budget    = 15.8 // ensemble states per cycle; 15.1 measured
	)
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
