package ckpt

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/workload"
)

func testMesh(t *testing.T) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testState(t *testing.T, m grid.Mesh, cycle, n int) State {
	t.Helper()
	truth := workload.Truth(m, workload.FieldSpec{Modes: 3, Amplitude: 3, Noise: 0.05}, 77)
	ens, err := workload.Ensemble(m, truth, n, 1.2, 77)
	if err != nil {
		t.Fatal(err)
	}
	free, err := workload.Ensemble(m, truth, n, 1.2, 78)
	if err != nil {
		t.Fatal(err)
	}
	hist, _ := json.Marshal([]map[string]float64{{"cycle": 0, "rmse": 0.25}})
	return State{
		Cycle:    cycle,
		Truth:    truth,
		Ensemble: ens,
		Free:     free,
		History:  hist,
		Seed:     77,
		Config:   map[string]string{"nx": "12", "ny": "8", "steps": "3"},
		PlanHash: "sha256:feed",
		RunID:    "senkf-cycle-20260808T000000Z-deadbeef",
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	st := testState(t, m, 4, 6)
	path, err := Write(dir, m, st)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != DirName(4) {
		t.Fatalf("landed at %s, want %s", path, DirName(4))
	}
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := l.State
	if got.Cycle != st.Cycle || got.Seed != st.Seed || got.PlanHash != st.PlanHash || got.RunID != st.RunID {
		t.Fatalf("identity fields mangled: %+v", got)
	}
	var wantHist, gotHist bytes.Buffer
	if err := json.Compact(&wantHist, st.History); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotHist, got.History); err != nil {
		t.Fatal(err)
	}
	if gotHist.String() != wantHist.String() {
		t.Fatalf("history mangled: %s", got.History)
	}
	if got.Config["steps"] != "3" {
		t.Fatalf("config mangled: %v", got.Config)
	}
	if l.Manifest.ConfigDigest != DigestConfig(st.Config) {
		t.Fatal("config digest mismatch")
	}
	// Bit-identical field round trip — the property the resume matrix
	// relies on.
	for i := range st.Truth {
		if got.Truth[i] != st.Truth[i] {
			t.Fatalf("truth point %d: %v != %v", i, got.Truth[i], st.Truth[i])
		}
	}
	for k := range st.Ensemble {
		for i := range st.Ensemble[k] {
			if got.Ensemble[k][i] != st.Ensemble[k][i] {
				t.Fatalf("member %d point %d differs", k, i)
			}
			if got.Free[k][i] != st.Free[k][i] {
				t.Fatalf("free member %d point %d differs", k, i)
			}
		}
	}
	// No stage directories linger after a successful landing.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".stage-") {
			t.Fatalf("stage %s left behind", e.Name())
		}
	}
}

func TestLatestFallsBackPastCorruption(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	for c := 1; c <= 3; c++ {
		if _, err := Write(dir, m, testState(t, m, c, 4)); err != nil {
			t.Fatal(err)
		}
	}

	// Newest checkpoint: flip a payload byte of the state file, in the last
	// control member's values — the manifest SHA-256 (and the ensio CRC
	// behind it) must disqualify it.
	victim := filepath.Join(dir, DirName(3), stateFile)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, skipped, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil || l.State.Cycle != 2 {
		t.Fatalf("Latest did not fall back to cycle 2: %+v", l)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Path, DirName(3)) {
		t.Fatalf("skipped = %+v, want the corrupted cycle-3 checkpoint", skipped)
	}

	// Truncate cycle-2's manifest too: fall all the way back to cycle 1.
	man := filepath.Join(dir, DirName(2), ManifestFile)
	data, err = os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	l, skipped, err = Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil || l.State.Cycle != 1 {
		t.Fatalf("Latest did not fall back to cycle 1: %+v", l)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d checkpoints, want 2", len(skipped))
	}
}

func TestLatestManifestCRCDetectsEdit(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	if _, err := Write(dir, m, testState(t, m, 0, 4)); err != nil {
		t.Fatal(err)
	}
	// A silently edited manifest (valid JSON, wrong content) must fail
	// the CRC layer, not be trusted.
	man := filepath.Join(dir, DirName(0), ManifestFile)
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"cycle": 0`, `"cycle": 9`, 1)
	if edited == string(data) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(man, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, DirName(0))); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("edited manifest loaded (err=%v)", err)
	}
}

func TestLatestEmptyAndMissingDir(t *testing.T) {
	l, skipped, err := Latest(filepath.Join(t.TempDir(), "nope"))
	if l != nil || skipped != nil || err != nil {
		t.Fatalf("missing dir: %v %v %v", l, skipped, err)
	}
	l, _, err = Latest(t.TempDir())
	if l != nil || err != nil {
		t.Fatalf("empty dir: %v %v", l, err)
	}
}

func TestHalfLandedStageIsIgnoredAndPruned(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	if _, err := Write(dir, m, testState(t, m, 0, 4)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-stage: an abandoned stage directory.
	stale := filepath.Join(dir, ".stage-crashed")
	if err := os.MkdirAll(filepath.Join(stale, "ensemble"), 0o755); err != nil {
		t.Fatal(err)
	}
	l, skipped, err := Latest(dir)
	if err != nil || l == nil || l.State.Cycle != 0 || len(skipped) != 0 {
		t.Fatalf("stage dir confused Latest: l=%v skipped=%v err=%v", l, skipped, err)
	}
	if err := Prune(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("Prune left the stale stage behind")
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	for c := 0; c < 5; c++ {
		if _, err := Write(dir, m, testState(t, m, c, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	cycles, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 || cycles[0] != 4 || cycles[1] != 3 {
		t.Fatalf("after prune: %v, want [4 3]", cycles)
	}
}

func TestWriteReplacesSameCycle(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	st := testState(t, m, 2, 4)
	if _, err := Write(dir, m, st); err != nil {
		t.Fatal(err)
	}
	st.Truth[0] += 1
	if _, err := Write(dir, m, st); err != nil {
		t.Fatal(err)
	}
	l, err := Load(filepath.Join(dir, DirName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if l.State.Truth[0] != st.Truth[0] {
		t.Fatal("same-cycle rewrite did not replace the checkpoint")
	}
}

func TestResizeEnsembleDeterministicAndVariancePreserving(t *testing.T) {
	m := testMesh(t)
	truth := workload.Truth(m, workload.FieldSpec{Modes: 3, Amplitude: 3, Noise: 0.05}, 5)
	ens, err := workload.Ensemble(m, truth, 8, 1.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := meanVariance(ens)

	grown, err := ResizeEnsemble(m, ens, 14, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != 14 {
		t.Fatalf("grew to %d members", len(grown))
	}
	if after := meanVariance(grown); math.Abs(after-before) > 1e-9*before {
		t.Fatalf("growth changed variance: %g -> %g", before, after)
	}
	grown2, err := ResizeEnsemble(m, ens, 14, 99)
	if err != nil {
		t.Fatal(err)
	}
	for k := range grown {
		for i := range grown[k] {
			if grown[k][i] != grown2[k][i] {
				t.Fatalf("growth not deterministic at member %d point %d", k, i)
			}
		}
	}
	other, err := ResizeEnsemble(m, ens, 14, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range other[13] {
		if other[13][i] != grown[13][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical resamples")
	}

	shrunk, err := ResizeEnsemble(m, ens, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk) != 4 {
		t.Fatalf("shrank to %d members", len(shrunk))
	}
	// Shrink reweights by sqrt((N−1)/(N'−1)) about the survivors' mean.
	survivors := make([][]float64, 4)
	for k := range survivors {
		survivors[k] = append([]float64(nil), ens[k]...)
	}
	factor := math.Sqrt(float64(8-1) / float64(4-1))
	reweight(survivors, factor)
	for k := range shrunk {
		for i := range shrunk[k] {
			if math.Abs(shrunk[k][i]-survivors[k][i]) > 1e-12 {
				t.Fatalf("shrink reweighting wrong at member %d point %d", k, i)
			}
		}
	}

	// Identity resize deep-copies.
	copyN, err := ResizeEnsemble(m, ens, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	copyN[0][0] += 1
	if copyN[0][0] == ens[0][0] {
		t.Fatal("identity resize aliased the input")
	}

	if _, err := ResizeEnsemble(m, ens, 1, 0); err == nil {
		t.Fatal("resize to 1 member accepted")
	}
}

func TestValidateStateErrors(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	st := testState(t, m, 0, 4)
	bad := st
	bad.Free = bad.Free[:3]
	if _, err := Write(dir, m, bad); err == nil {
		t.Fatal("mismatched free-control size accepted")
	}
	bad = st
	bad.Truth = bad.Truth[:10]
	if _, err := Write(dir, m, bad); err == nil {
		t.Fatal("short truth accepted")
	}
	bad = st
	bad.Cycle = -1
	if _, err := Write(dir, m, bad); err == nil {
		t.Fatal("negative cycle accepted")
	}
}
