package baseline

import (
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/obs"
	"senkf/internal/report"
	"senkf/internal/trace"
	"senkf/internal/workload"
)

func setup(t *testing.T) (Problem, grid.Decomposition, [][]float64) {
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
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
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

func TestPEnKFMatchesReferenceAcrossDecompositions(t *testing.T) {
	p, _, ref := setup(t)
	for _, d := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {6, 3}, {12, 4}} {
		dec, err := grid.NewDecomposition(p.Cfg.Mesh, d[0], d[1], p.Cfg.Radius)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		got, err := RunPEnKF(p, dec)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if diff := enkf.MaxAbsDiffFields(got, ref); diff != 0 {
			t.Errorf("decomposition %v: differs from reference by %g", d, diff)
		}
	}
}

func TestLEnKFMatchesReferenceAcrossDecompositions(t *testing.T) {
	p, _, ref := setup(t)
	for _, d := range [][2]int{{1, 1}, {3, 2}, {4, 4}} {
		dec, err := grid.NewDecomposition(p.Cfg.Mesh, d[0], d[1], p.Cfg.Radius)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		got, err := RunLEnKF(p, dec)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if diff := enkf.MaxAbsDiffFields(got, ref); diff != 0 {
			t.Errorf("decomposition %v: differs from reference by %g", d, diff)
		}
	}
}

func TestPEnKFRecordsReadAndCompute(t *testing.T) {
	p, dec, _ := setup(t)
	buf := trace.NewBuffer()
	p.Tr = trace.New(nil, buf)
	if _, err := RunPEnKF(p, dec); err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	b := trace.PhaseBreakdown(events, metrics.ComputePrefix)
	if b.Read <= 0 || b.Compute <= 0 {
		t.Errorf("breakdown %+v", b)
	}
	if b.Comm != 0 {
		t.Error("P-EnKF should not communicate during acquisition")
	}
	if r, err := report.Build(events); err != nil || r.ComputeTracks != dec.SubDomains() {
		t.Errorf("recorded %+v (%v), want %d compute procs", r, err, dec.SubDomains())
	}
}

func TestLEnKFRecordsReaderPhases(t *testing.T) {
	p, dec, _ := setup(t)
	buf := trace.NewBuffer()
	p.Tr = trace.New(nil, buf)
	if _, err := RunLEnKF(p, dec); err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	reader := trace.PhaseBreakdown(events, metrics.IOName(0, 0))
	if reader.Read <= 0 || reader.Comm <= 0 {
		t.Errorf("reader breakdown %+v", reader)
	}
	// Compute ranks wait for the scattered blocks, never read.
	other := trace.PhaseBreakdown(events, metrics.ComputeName(1, 0))
	if other.Read != 0 || other.Wait <= 0 {
		t.Errorf("non-reader breakdown %+v", other)
	}
}

func TestProblemValidation(t *testing.T) {
	p, dec, _ := setup(t)
	bad := p
	bad.Net = nil
	if _, err := RunPEnKF(bad, dec); err == nil {
		t.Error("nil network accepted")
	}
	bad = p
	bad.Dir = ""
	if _, err := RunLEnKF(bad, dec); err == nil {
		t.Error("empty dir accepted")
	}
	otherMesh, _ := grid.NewMesh(12, 12)
	otherDec, _ := grid.NewDecomposition(otherMesh, 2, 2, p.Cfg.Radius)
	if _, err := RunPEnKF(p, otherDec); err == nil {
		t.Error("mesh mismatch accepted")
	}
}

func TestMissingFilesFailCleanly(t *testing.T) {
	p, dec, _ := setup(t)
	p.Dir = t.TempDir()
	if _, err := RunPEnKF(p, dec); err == nil {
		t.Error("P-EnKF with missing files should fail")
	}
	if _, err := RunLEnKF(p, dec); err == nil {
		t.Error("L-EnKF with missing files should fail")
	}
}
