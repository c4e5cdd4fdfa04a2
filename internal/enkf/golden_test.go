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

// goldenSerial pins SerialReference bit for bit across the local-analysis
// workspace refactor: every digest was recorded from the per-point
// buildLocal implementation (the parent of the commit that introduced the
// workspace) on the fixed problem below. SerialReference is what every
// parallel path and the benchmark's correctness gate compare against, so
// these digests are the proof that the reference itself did not move.
var goldenSerial = map[string]string{
	"ensemble-space/plain":     "35e6534e318472c90abe3cc0db5457eab9faac927f67d8cc7dcf910c22abc0ce",
	"ensemble-space/taper":     "69df43fc83a58865a54febc3d0bee4d861e6fbf911765a076c782556c9f7caa5",
	"ensemble-space/inflation": "ee9d2230bd9727087806960ae346cc21cfbe689021cf6b83c570faddccc29afc",
	"ensemble-space/offgrid":   "716f9f3200c04717246720aec80298d1441dc1ce17e5438be97a0880bf3b3139",
	"modchol-band0/plain":      "ced3bbb64329f4463cc887467fb9f06b9b2bb9ccdd548dfefc369daed0d74276",
	"modchol-band0/taper":      "9f48d9f774173d3081c1ab8865da509593e816b72762615e2e55a31b2fc7ccdf",
	"modchol-band0/inflation":  "34eeb0b999f7e3ca8948cd436938208d334824f0a197926f4ce31fe77dc142e1",
	"modchol-band0/offgrid":    "437a10833b95fd02f13e967d7ee53009154127046d2418bd6a32e3ce767e42cd",
	"modchol-band2/plain":      "86ed6a2b4069a0b853d70dbf696ac82b1d15a68a335d21e62d4da28e6a02e88a",
	"modchol-band2/taper":      "f5b49b73b13a9041d521544ac9fecb3e5b09dedc4f55d40dd81c0a03ec1219a9",
	"modchol-band2/inflation":  "c919c41630e1f96ddd881dffdff18557b8802bbc25a39898806f1306664668c8",
	"modchol-band2/offgrid":    "70625c7f1c75e0c83dfd1cdac11e8524d1c5c6eada1522e5b83085aa2d83d9c9",
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
		}
	}
}
