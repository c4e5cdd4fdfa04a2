package core

import (
	"errors"
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

func TestMultiLevelMatchesPerLevelReference(t *testing.T) {
	p, dec, refs := setupML(t)
	got, err := RunSEnKFMultiLevel(p, Plan{Dec: dec, L: 3, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("got %d levels, want %d", len(got), len(refs))
	}
	for l := range refs {
		if d := enkf.MaxAbsDiffFields(got[l], refs[l]); d != 0 {
			t.Errorf("level %d differs from per-level reference by %g", l, d)
		}
	}
}

func TestMultiLevelAcrossPlanShapes(t *testing.T) {
	p, _, refs := setupML(t)
	for _, s := range []struct{ nsdx, nsdy, l, ncg int }{
		{4, 2, 1, 1},
		{2, 2, 3, 4},
		{6, 3, 2, 2},
	} {
		dec, err := grid.NewDecomposition(p.Cfg.Mesh, s.nsdx, s.nsdy, p.Cfg.Radius)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSEnKFMultiLevel(p, Plan{Dec: dec, L: s.l, NCg: s.ncg})
		if err != nil {
			t.Fatalf("plan %+v: %v", s, err)
		}
		for l := range refs {
			if d := enkf.MaxAbsDiffFields(got[l], refs[l]); d != 0 {
				t.Errorf("plan %+v level %d: differs by %g", s, l, d)
			}
		}
	}
}

func TestMultiLevelSharedBarReads(t *testing.T) {
	// The I/O co-design: reading L levels costs the same number of
	// addressing operations as reading one level — the bar carries all
	// levels contiguously.
	p, dec, _ := setupML(t)
	buf := trace.NewBuffer()
	p.Tr = trace.New(nil, buf)
	if _, err := RunSEnKFMultiLevel(p, Plan{Dec: dec, L: 3, NCg: 2}); err != nil {
		t.Fatal(err)
	}
	if trace.PhaseBreakdown(buf.Events(), metrics.IOPrefix).Read <= 0 {
		t.Error("no read time recorded")
	}
	// Check actual seek counts on a fresh file: one seek per stage bar,
	// regardless of the level count.
	mf, err := ensio.OpenMember(ensio.MemberPath(p.Dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if _, err := mf.ReadBarLevels(0, 6); err != nil {
		t.Fatal(err)
	}
	if s := mf.Stats(); s.Seeks != 1 {
		t.Errorf("multi-level bar read took %d seeks, want 1", s.Seeks)
	}
}

func TestMultiLevelValidation(t *testing.T) {
	p, dec, _ := setupML(t)
	// Without Nets the problem is a valid single-level one over Net, which
	// the multilevel entry point must still refuse.
	bad := p
	bad.Net, bad.Nets = p.Nets[0], nil
	if _, err := RunSEnKFMultiLevel(bad, Plan{Dec: dec, L: 1, NCg: 1}); !errors.Is(err, plan.ErrNoNetworks) {
		t.Errorf("missing networks: err = %v, want %v", err, plan.ErrNoNetworks)
	}
	bad = p
	bad.Nets = []*obs.Network{p.Nets[0], nil}
	if _, err := RunSEnKFMultiLevel(bad, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("nil network accepted")
	}
	bad = p
	bad.Dir = ""
	if _, err := RunSEnKFMultiLevel(bad, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("empty dir accepted")
	}
	// Level-count mismatch between files (3 levels) and networks (2).
	bad = p
	bad.Nets = p.Nets[:2]
	if _, err := RunSEnKFMultiLevel(bad, Plan{Dec: dec, L: 1, NCg: 1}); err == nil {
		t.Error("level-count mismatch accepted")
	}
}

func TestMultiLevelImprovesEveryLevel(t *testing.T) {
	const levels = 3
	ps := workload.TestScale
	m, _ := ps.Mesh()
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
		nets[l], err = obs.StridedNetwork(m, truths[l], 2, 2, 0.01, ps.Seed+uint64(l))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSEnKFMultiLevel(Problem{Cfg: cfg, Dir: dir, Nets: nets}, Plan{Dec: dec, L: 2, NCg: 4})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < levels; l++ {
		bg := make([][]float64, ps.Members)
		for k := range bg {
			bg[k] = members[k][l]
		}
		before := enkf.RMSE(enkf.EnsembleMean(bg), truths[l])
		after := enkf.RMSE(enkf.EnsembleMean(got[l]), truths[l])
		if !(after < before) {
			t.Errorf("level %d: RMSE %g -> %g", l, before, after)
		}
	}
}

// The multi-level triangle test (S-EnKF ML vs P-EnKF ML vs per-level
// serial reference) lives in internal/baseline/multilevel_test.go: baseline
// may import core, but not the reverse.
