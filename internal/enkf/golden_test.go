package enkf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// goldenSerial pins SerialReference bit for bit on the fixed problem below.
// SerialReference is what every parallel path and the benchmark's correctness
// gate compare against, so these digests are the proof that the reference
// itself did not move. The etkf digests were recorded from the per-point
// buildLocal implementation (the parent of the commit that introduced the
// workspace). The ensemble-space and modified-Cholesky digests were recorded
// again when those solvers went from N right-hand sides to one (DESIGN.md
// ch. 23): that rounds the substitutions differently, so the test also holds
// every field to the verbatim oracle, within oracleTolerance (EXPERIMENTS.md,
// "Record: PR 22", lists old and new digest and the distance between them).
var goldenSerial = map[string]string{
	"ensemble-space/plain":     "a4302475e032817f38f5c92002d39cca4b27c4cdf33a9a18a012d1c62cf0597b",
	"ensemble-space/taper":     "315d6a1756293491530f4dcc7b74744b3fca5460d75b93aa27d1aea42a09b4df",
	"ensemble-space/inflation": "5bd3bebfa7fe5ec6a80b05cb6f0cbb9da43646a99b7826860e17a8c07b994c31",
	"ensemble-space/offgrid":   "077abc73dac195986e26763603e8504def66e945beb97e885afc3a317c21ce3f",
	"modchol-band0/plain":      "521956828b648824984f80c0c5843a6248ef0624092415a0aed25d6112ce3c02",
	"modchol-band0/taper":      "6dd479a9cf66a2538a9ddb158458fc99e7daf8c415e34592e4e1fcc67e27afb4",
	"modchol-band0/inflation":  "4a8f50bca52b44d86e612cbb4827c848d99bfbb4b09e265da91ed7b20b143f9f",
	"modchol-band0/offgrid":    "de1cd0258808af6a351a2cdd5e6678678ca7548c1775c823070ab1000e184381",
	"modchol-band2/plain":      "190eba6a0c2376573a61f5def799ffa0abcb87416a3001bffb16586341f008ba",
	"modchol-band2/taper":      "e24e8d9bd702404778e0c7b7438781c28f2f89d14ef552fae3f75057b2b67f36",
	"modchol-band2/inflation":  "5f10cce2300cf4330ca756ab07d9eb65eb62443804cc5e94fe73f0d18227f6d3",
	"modchol-band2/offgrid":    "226d75507d1d258910e43dbc664fae914cefeee4c7b2e59ce7312a2b9717a0c4",
	"etkf/plain":               "94f00252d47e988bd4c74c8c89258a8f92e02e8ebd8432aa99a65b06b60f755b",
	"etkf/taper":               "65554e1afe2693f6e43a0436a6a477a4e911403982e849793e9b3acb30590629",
	"etkf/inflation":           "7c83f3da532423ed4295dc63e817fbaabc6178da8c387101de292c74462b2e98",
	"etkf/offgrid":             "aaba21aa51392037ac8900bf61b4dbc69015dac8549b4e12ec1009d6945dc563",
}

// hashEnsemble is the SHA-256 of the little-endian IEEE-754 bit stream of
// the fields in (member, point) order.
func hashEnsemble(fields [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, member := range fields {
		for _, v := range member {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSerialReferenceGolden(t *testing.T) {
	// Self-contained constants: independent of workload presets, so the pin
	// survives unrelated test-scale changes.
	const (
		members = 10
		seed    = 20190216
	)
	m, err := grid.NewMesh(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := obs.StridedNetwork(m, truth, 2, 3, 0.04, seed)
	if err != nil {
		t.Fatal(err)
	}
	offGrid, err := obs.RandomOffGridNetwork(m, truth, 70, 0.04, seed)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mesh: m, Radius: grid.Radius{Xi: 3, Eta: 2}, N: members, Seed: seed}

	solvers := []struct {
		name string
		set  func(*Config)
	}{
		{"ensemble-space", func(c *Config) { c.Solver = SolverEnsembleSpace }},
		{"modchol-band0", func(c *Config) { c.Solver = SolverModifiedCholesky }},
		{"modchol-band2", func(c *Config) { c.Solver, c.Band, c.Ridge = SolverModifiedCholesky, 2, 1e-4 }},
		{"etkf", func(c *Config) { c.Solver = SolverETKF }},
	}
	variants := []struct {
		name string
		net  *obs.Network
		set  func(*Config)
	}{
		{"plain", strided, func(*Config) {}},
		{"taper", strided, func(c *Config) { c.TaperLength = 1.2 }},
		{"inflation", strided, func(c *Config) { c.Inflation = 1.07 }},
		{"offgrid", offGrid, func(c *Config) { c.TaperLength = 1.6 }},
	}
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	solved := make([]bool, m.Points())
	for i := range solved {
		solved[i] = true
	}
	for _, s := range solvers {
		for _, v := range variants {
			name := s.name + "/" + v.name
			cfg := base
			s.set(&cfg)
			v.set(&cfg)
			xa, err := SerialReference(cfg, bg, v.net)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if got := hashEnsemble(xa); got != goldenSerial[name] {
				t.Errorf("%s: SerialReference digest\n\t%q: %q,\ngolden %q", name, name, got, goldenSerial[name])
			}
			// What the digest is allowed to be: the oracle's field, to the bit
			// for the ETKF and within oracleTolerance for the other two.
			want, err := cfg.oracleBox(&Block{Box: full, Data: bg}, v.net.Obs, full)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			dev := agreesWithOracle(t, name, cfg.Solver, &Block{Box: full, Data: xa}, want, solved)
			t.Logf("%s: %.2g of the field scale from the oracle", name, dev)
		}
	}
}
