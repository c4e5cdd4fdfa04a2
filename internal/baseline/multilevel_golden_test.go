package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// The golden hashes pin the multilevel analysis output bit for bit across
// the level-aware engine refactor: they were recorded from the pre-refactor
// bespoke loops (runIOML/runComputeML and the baseline's own rank loop) on
// the fixed problem below, and the unified engine must reproduce them
// exactly. The problem is self-contained — independent of workload presets —
// so the pin survives unrelated test-scale changes. They were recorded again
// when the ensemble-space solver went from N right-hand sides to one
// (DESIGN.md ch. 23; was c7d0cf0d…7c2f66af, 1.1e-15 of the field scale away):
// what they prove since is that both engines still produce the same bits.
const (
	goldenSEnKFML = "4c8d1f04a4154d359c37ad6347dcff52df2f01162bd79dcff8267f0ee54bb2a0"
	goldenPEnKFML = "4c8d1f04a4154d359c37ad6347dcff52df2f01162bd79dcff8267f0ee54bb2a0"
)

// goldenMLProblem builds the fixed seeded multilevel problem behind the
// golden hashes. Any change to these constants invalidates the pin.
func goldenMLProblem(t *testing.T) (Problem, grid.Decomposition) {
	t.Helper()
	const (
		levels  = 3
		members = 8
		seed    = 12345
	)
	m, err := grid.NewMesh(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	truths, err := workload.TruthLevels(m, workload.DefaultFieldSpec, levels, seed)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := workload.EnsembleLevels(m, truths, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsembleLevels(dir, m, ens); err != nil {
		t.Fatal(err)
	}
	nets := make([]*obs.Network, levels)
	for l := range nets {
		nets[l], err = obs.StridedNetwork(m, truths[l], 3, 3, 0.01, seed+uint64(l))
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := enkf.Config{Mesh: m, Radius: grid.Radius{Xi: 3, Eta: 2}, N: members, Seed: seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Nets: nets}, dec
}

// hashFields canonicalises a [level][member][]float64 analysis as the
// little-endian IEEE-754 bit stream in (level, member, point) order and
// returns its SHA-256.
func hashFields(t *testing.T, fields [][][]float64) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	for _, lvl := range fields {
		for _, member := range lvl {
			for _, v := range member {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestMultiLevelGoldenSEnKF(t *testing.T) {
	p, dec := goldenMLProblem(t)
	out, err := core.RunSEnKFMultiLevel(p, core.Plan{Dec: dec, L: 2, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := hashFields(t, out)
	if got != goldenSEnKFML {
		t.Fatalf("S-EnKF multilevel analysis hash %s, golden %s", got, goldenSEnKFML)
	}
}

func TestMultiLevelGoldenPEnKF(t *testing.T) {
	p, dec := goldenMLProblem(t)
	out, err := RunPEnKFMultiLevel(p, dec)
	if err != nil {
		t.Fatal(err)
	}
	got := hashFields(t, out)
	if got != goldenPEnKFML {
		t.Fatalf("P-EnKF multilevel analysis hash %s, golden %s", got, goldenPEnKFML)
	}
}
