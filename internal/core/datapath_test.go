package core

import (
	"runtime"
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/workload"
)

// TestDataPathAllocationBudget bounds what one S-EnKF run allocates in
// multiples of the state it moves (levels·N·points·8 bytes). The single-copy
// data path needs the payloads (the state plus its stage halo, 8/6 of it
// here), the result blocks and the final fields, about 3.7 states in all —
// the point-major transposition of the analysis is not among them: the
// network is sparse (stride 8), so it spans what the observations reach and
// not the stage (it was 0.65 of a state when it did), and the ranks' analysis
// workspaces come from a pool that outlives the call. Every further copy of
// the ensemble between file and fields costs a whole state more, so one
// slipping back in fails here, not only in the benchmark.
func TestDataPathAllocationBudget(t *testing.T) {
	const (
		nx, ny, levels, n = 96, 48, 2, 16
		budget            = 4.2 // states per call: 3.60–3.74 measured (a collection empties the pool), +10% is 4.1; 3.99–4.10 under -race, whose sync.Pool drops buffers; 3.9 before the workspaces were pooled, 4.56 with a stage-wide transposition, 13.0 before the path was single-copy
	)
	m, err := grid.NewMesh(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	truths, err := workload.TruthLevels(m, workload.DefaultFieldSpec, levels, 7)
	if err != nil {
		t.Fatal(err)
	}
	members, err := workload.EnsembleLevels(m, truths, n, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsembleLevels(dir, m, members); err != nil {
		t.Fatal(err)
	}
	nets := make([]*obs.Network, levels)
	for l := range nets {
		if nets[l], err = obs.StridedNetwork(m, truths[l], 8, 8, 0.01, 7+uint64(l)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := enkf.Config{Mesh: m, Radius: grid.Radius{Xi: 0, Eta: 1}, N: n, Seed: 7}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(Plan{Dec: dec, L: 2, NCg: 2}.Spec(n).WithLevels(levels))
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Cfg: cfg, Dir: dir, Nets: nets}

	// The warm-up call is also the correctness check: a cheap path that
	// moved the wrong bytes would be no path at all.
	got, err := ExecutePlanLevels(p, c)
	if err != nil {
		t.Fatal(err)
	}
	for l := range got {
		bg := make([][]float64, n)
		for k := range bg {
			bg[k] = members[k][l]
		}
		ref, err := enkf.SerialReference(cfg, bg, nets[l])
		if err != nil {
			t.Fatal(err)
		}
		if d := enkf.MaxAbsDiffFields(got[l], ref); d != 0 {
			t.Fatalf("level %d differs from the serial reference by %g", l, d)
		}
	}

	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ExecutePlanLevels(p, c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	state := float64(levels * n * m.Points() * 8)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.2f MB per call for a %.2f MB state: %.2f states", perCall/1e6, state/1e6, perCall/state)
	if perCall > budget*state {
		t.Errorf("one run allocates %.2f× the state it moves (%.2f MB for %.2f MB), budget %.1f×", perCall/state, perCall/1e6, state/1e6, budget)
	}
}
