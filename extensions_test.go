package senkf

import (
	"strings"
	"testing"

	"senkf/internal/workload"
)

func TestFacadeCycling(t *testing.T) {
	mesh, err := NewMesh(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewForwardModel(mesh, 0.3, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	const members = 12
	truth := GenerateTruth(mesh, DefaultFieldSpec, 5)
	ensemble, err := GenerateEnsemble(mesh, truth, members, 1.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CycleConfig{
		Enkf:          Config{Mesh: mesh, Radius: radius, N: members, Inflation: 1.1},
		Model:         fm,
		StepsPerCycle: 2,
		ObsStrideX:    2, ObsStrideY: 2,
		ObsVar:       1e-4,
		ModelErrorSD: 0.2,
		Seed:         5,
	}
	hist, err := RunCycles(cfg, truth, ensemble, 4, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("got %d cycles", len(hist))
	}
	last := hist[len(hist)-1]
	if !(last.AnalysisRMSE < last.FreeRMSE) {
		t.Errorf("assimilation (%g) not better than free run (%g)", last.AnalysisRMSE, last.FreeRMSE)
	}
	// Parallel analyzer through the facade produces the identical history.
	dec, err := NewDecomposition(mesh, 4, 2, radius)
	if err != nil {
		t.Fatal(err)
	}
	hist2, err := RunCycles(cfg, truth, ensemble, 4, SEnKFAnalyzer(Problem{Dir: t.TempDir()}, Plan{Dec: dec, L: 2, NCg: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range hist {
		if hist[i] != hist2[i] {
			t.Fatalf("cycle %d: serial %+v vs S-EnKF %+v", i, hist[i], hist2[i])
		}
	}
}

func TestFacadeMultiLevel(t *testing.T) {
	mesh, err := NewMesh(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const levels = 2
	const members = 10
	truths, err := GenerateTruthLevels(mesh, DefaultFieldSpec, levels, 9)
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := GenerateEnsembleLevels(mesh, truths, members, 1.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsembleLevels(dir, mesh, ensemble); err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, levels)
	for l := range nets {
		nets[l], err = NewStridedNetwork(mesh, truths[l], 2, 2, 0.01, 9+uint64(l))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Mesh: mesh, Radius: radius, N: members, Seed: 9}
	dec, err := NewDecomposition(mesh, 4, 2, radius)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := RunSEnKFMultiLevel(
		Problem{Cfg: cfg, Dir: dir, Nets: nets},
		Plan{Dec: dec, L: 2, NCg: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis) != levels {
		t.Fatalf("got %d levels", len(analysis))
	}
	for l := 0; l < levels; l++ {
		bg := make([][]float64, members)
		for k := 0; k < members; k++ {
			bg[k] = ensemble[k][l]
		}
		ref, err := SerialReference(cfg, bg, nets[l])
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref {
			for i := range ref[k] {
				if analysis[l][k][i] != ref[k][i] {
					t.Fatalf("level %d: mismatch vs per-level reference", l)
				}
			}
		}
	}
}

func TestFacadeOffGridNetwork(t *testing.T) {
	mesh, err := NewMesh(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, 3)
	net, err := NewOffGridNetwork(mesh, truth, 20, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.Len() != 20 {
		t.Fatalf("got %d observations", net.Len())
	}
}

func TestFacadeETKFSolver(t *testing.T) {
	ps := workload.TestScale
	mesh, _ := NewMesh(ps.NX, ps.NY)
	radius, _ := NewRadius(ps.Xi, ps.Eta)
	truth := GenerateTruth(mesh, DefaultFieldSpec, ps.Seed)
	bg, err := GenerateEnsemble(mesh, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, 2, 2, 0.01, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: mesh, Radius: radius, N: ps.Members, Seed: ps.Seed, Solver: SolverETKF}
	xa, err := SerialReference(cfg, bg, net)
	if err != nil {
		t.Fatal(err)
	}
	if !(RMSE(EnsembleMean(xa), truth) < RMSE(EnsembleMean(bg), truth)) {
		t.Error("ETKF via facade did not reduce RMSE")
	}
}

func TestFacadeAblations(t *testing.T) {
	suite := QuickFigures()
	np := suite.O.ProcCounts[len(suite.O.ProcCounts)-1]
	abs, err := suite.Ablations(np)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteAblations(&sb, np, abs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "S-EnKF") {
		t.Error("ablation table missing the full design")
	}
}

func TestFacadeSmoothNoise(t *testing.T) {
	mesh, _ := NewMesh(16, 8)
	a := workload.SmoothNoise(mesh, 0.5, 1, 2, 3)
	b := workload.SmoothNoise(mesh, 0.5, 1, 2, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("smooth noise not deterministic")
		}
	}
	c := workload.SmoothNoise(mesh, 0.5, 1, 2, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different keys produced identical noise")
	}
}
