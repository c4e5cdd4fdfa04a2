package senkf

import (
	"io"
	"testing"

	"senkf/internal/ensio"
	"senkf/internal/schedule"
	"senkf/internal/workload"
)

// buildProblem assembles a complete test problem via the public API only.
func buildProblem(t *testing.T) (Problem, Decomposition, [][]float64, []float64) {
	t.Helper()
	ps := workload.TestScale
	mesh, err := NewMesh(ps.NX, ps.NY)
	if err != nil {
		t.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, ps.Seed)
	members, err := GenerateEnsemble(mesh, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEnsemble(dir, mesh, members); err != nil {
		t.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := NewRadius(ps.Xi, ps.Eta)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: mesh, Radius: radius, N: ps.Members, Seed: ps.Seed}
	dec, err := NewDecomposition(mesh, 4, 2, radius)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Net: net}, dec, members, truth
}

func TestPublicAPIEndToEnd(t *testing.T) {
	p, dec, members, truth := buildProblem(t)
	ref, err := SerialReference(p.Cfg, members, p.Net)
	if err != nil {
		t.Fatal(err)
	}
	// All three parallel paths through the facade agree with the reference.
	sen, err := RunSEnKF(p, Plan{Dec: dec, L: 3, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	pen, err := RunPEnKF(p, dec)
	if err != nil {
		t.Fatal(err)
	}
	len_, err := RunLEnKF(p, dec)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][][]float64{"S-EnKF": sen, "P-EnKF": pen, "L-EnKF": len_} {
		for k := range ref {
			for i := range ref[k] {
				if got[k][i] != ref[k][i] {
					t.Fatalf("%s differs from reference at member %d point %d", name, k, i)
				}
			}
		}
	}
	// And assimilation improved the state.
	before := RMSE(EnsembleMean(members), truth)
	after := RMSE(EnsembleMean(sen), truth)
	if !(after < before) {
		t.Errorf("assimilation did not improve RMSE: %g -> %g", before, after)
	}
}

func TestPublicAPIAutoTuneAndSimulate(t *testing.T) {
	m := DefaultMachine()
	tuned, ok := AutoTuneConstrained(m.P, 4000, 0.001, TuneConstraints{MaxL: 12, MaxNCg: 12})
	if !ok {
		t.Fatal("auto-tuner found nothing")
	}
	sres, err := SimulateSEnKF(m, tuned.Choice)
	if err != nil {
		t.Fatal(err)
	}
	nsdx, nsdy, err := ChooseDecomposition(m.P, 4000)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := SimulatePEnKF(m, nsdx, nsdy)
	if err != nil {
		t.Fatal(err)
	}
	if !(sres.Runtime < pres.Runtime) {
		t.Errorf("tuned S-EnKF (%.1fs) not faster than P-EnKF (%.1fs) at 4000 processors",
			sres.Runtime, pres.Runtime)
	}
	lres, err := schedule.SimulateLEnKF(m, nsdx, nsdy)
	if err != nil {
		t.Fatal(err)
	}
	if !(sres.Runtime < lres.Runtime) {
		t.Errorf("tuned S-EnKF (%.1fs) not faster than L-EnKF (%.1fs)", sres.Runtime, lres.Runtime)
	}
}

func TestPublicAPIQuickFigures(t *testing.T) {
	suite := QuickFigures()
	fig, err := suite.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteTable(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 {
		t.Error("empty figure")
	}
}

func TestPresetsAreConsistent(t *testing.T) {
	for _, ps := range []workload.Preset{workload.PaperScale, LaptopScale, workload.TestScale} {
		m, err := ps.Mesh()
		if err != nil {
			t.Errorf("%s: %v", ps.Name, err)
			continue
		}
		if m.NX != ps.NX || m.NY != ps.NY {
			t.Errorf("%s: mesh mismatch", ps.Name)
		}
		if ps.BytesPerPoint() != ps.Levels*8 {
			t.Errorf("%s: h = %d, want %d", ps.Name, ps.BytesPerPoint(), ps.Levels*8)
		}
	}
	if workload.PaperScale.BytesPerPoint() != 240 {
		t.Errorf("paper h = %d, want 240", workload.PaperScale.BytesPerPoint())
	}
}

func TestMemberPathExported(t *testing.T) {
	if ensio.MemberPath("/x", 3) != "/x/member_0003.senk" {
		t.Errorf("MemberPath = %q", ensio.MemberPath("/x", 3))
	}
}
