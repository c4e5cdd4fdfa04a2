package baseline

import (
	"errors"
	"testing"

	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/workload"
)

// setupML builds a 3-level problem with member files on disk and the
// per-level serial references.
func setupML(t *testing.T) (Problem, grid.Decomposition, [][][]float64) {
	t.Helper()
	const levels = 3
	ps := workload.TestScale
	m, err := ps.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	truths, err := workload.TruthLevels(m, workload.DefaultFieldSpec, levels, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	members, err := workload.EnsembleLevels(m, truths, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsembleLevels(dir, m, members); err != nil {
		t.Fatal(err)
	}
	nets := make([]*obs.Network, levels)
	for l := range nets {
		nets[l], err = obs.StridedNetwork(m, truths[l], ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed+uint64(l))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	// Per-level serial reference over [member][level] -> [level][member].
	refs := make([][][]float64, levels)
	for l := 0; l < levels; l++ {
		bg := make([][]float64, ps.Members)
		for k := 0; k < ps.Members; k++ {
			bg[k] = members[k][l]
		}
		refs[l], err = enkf.SerialReference(cfg, bg, nets[l])
		if err != nil {
			t.Fatal(err)
		}
	}
	return Problem{Cfg: cfg, Dir: dir, Nets: nets}, dec, refs
}

func TestMultiLevelTriangleWithPEnKF(t *testing.T) {
	// The multi-level P-EnKF baseline (block reads of all levels) matches
	// the multi-level S-EnKF (shared bar reads) and the per-level serial
	// reference exactly.
	p, dec, refs := setupML(t)
	sen, err := core.RunSEnKFMultiLevel(p, core.Plan{Dec: dec, L: 2, NCg: 4})
	if err != nil {
		t.Fatal(err)
	}
	pen, err := RunPEnKFMultiLevel(p, dec)
	if err != nil {
		t.Fatal(err)
	}
	for l := range refs {
		if d := enkf.MaxAbsDiffFields(sen[l], refs[l]); d != 0 {
			t.Errorf("level %d: S-EnKF differs by %g", l, d)
		}
		if d := enkf.MaxAbsDiffFields(pen[l], refs[l]); d != 0 {
			t.Errorf("level %d: P-EnKF differs by %g", l, d)
		}
	}
}

// Without Nets the problem is a valid single-level one over Net, which the
// multilevel entry point must still refuse.
func TestMultiLevelPEnKFNeedsNetworks(t *testing.T) {
	p, dec, _ := setupML(t)
	p.Net, p.Nets = p.Nets[0], nil
	if _, err := RunPEnKFMultiLevel(p, dec); !errors.Is(err, plan.ErrNoNetworks) {
		t.Errorf("missing networks: err = %v, want %v", err, plan.ErrNoNetworks)
	}
}
