package cycle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/workload"
)

// stateDigest is the SHA-256 of a State's bits: the truth, every ensemble
// member, every control member, then each Stats record (cycle index and its
// four floats), all little-endian.
func stateDigest(st State) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	fields := append(append([][]float64{st.Truth}, st.Ensemble...), st.Free...)
	for _, f := range fields {
		for _, v := range f {
			put(math.Float64bits(v))
		}
	}
	for _, s := range st.History {
		put(uint64(s.Cycle))
		for _, v := range []float64{s.BackgroundRMSE, s.AnalysisRMSE, s.FreeRMSE, s.Spread} {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The final State of a 6-cycle RunFrom is pinned bit for bit by its digest,
// recorded with the code before the forecast became one pass (a12a331). Two
// generated configurations: a 45×27 mesh with model error, whose odd point
// count makes each member's white-noise draw end on a lone cosine, and the
// benchmark's cycle geometry without model error. Each runs at GOMAXPROCS 1
// and 4, so a worker's scratch carrying anything from one job to the next,
// or a job reading another's output, shows here.
func TestRunFromStateDigests(t *testing.T) {
	cases := []struct {
		name      string
		nx, ny, n int
		radius    grid.Radius
		solver    enkf.Solver
		stride    int
		sd        float64
		seed      uint64
		want      string
	}{
		{"45x27 model error", 45, 27, 10, grid.Radius{Xi: 2, Eta: 1}, enkf.SolverEnsembleSpace, 3, 0.2, 38,
			"962e4fef2be58d5a1ab788f8c6646accc05775afaa736dbccafb1f1c5d28cb39"},
		{"cycle geometry no model error", 128, 64, 16, grid.Radius{Xi: 1, Eta: 1}, enkf.SolverModifiedCholesky, 4, 0, 20190216,
			"8f21372920fd28747ed0473b8f17e60c7fbc6f48c605364f73a55d4ca2b070e8"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		m, err := grid.NewMesh(tc.nx, tc.ny)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := model.New(m, 0.4, 0.2, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		truth := workload.Truth(m, workload.DefaultFieldSpec, tc.seed)
		ensemble, err := workload.Ensemble(m, truth, tc.n, 1.5, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Enkf: enkf.Config{Mesh: m, Radius: tc.radius, N: tc.n, Solver: tc.solver,
				Band: 2, Ridge: 1e-6, Inflation: 1.1},
			Model:         adv,
			StepsPerCycle: 3,
			ObsStrideX:    tc.stride, ObsStrideY: tc.stride,
			ObsVar:       1e-4,
			ModelErrorSD: tc.sd,
			Seed:         tc.seed,
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			var last State
			hook := func(st State) error { last = st; return nil }
			if _, err := RunFrom(cfg, State{Truth: truth, Ensemble: ensemble}, 6, SerialAnalyzer(), nil, hook); err != nil {
				t.Fatal(err)
			}
			if got := stateDigest(last); got != tc.want {
				t.Errorf("%s, GOMAXPROCS %d: final state digest %s, want %s", tc.name, procs, got, tc.want)
			}
		}
	}
}
