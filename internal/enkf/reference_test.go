package enkf

import (
	"fmt"
	"runtime"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// oneBox is the analysis of the whole mesh as one box: what SerialReference
// computed before it was cut into bands.
func oneBox(c Config, background [][]float64, cands []obs.Observation) ([][]float64, error) {
	full := grid.Box{X0: 0, X1: c.Mesh.NX, Y0: 0, Y1: c.Mesh.NY}
	out, err := c.AnalyzeBox(&Block{Box: full, Data: background}, cands, full)
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}

// SerialReference analyses its bands in parallel, each through a pooled
// workspace, sharing one perturbation table: over the generated problems of
// the sparse net and every fourth of the oracle net's (off-grid observations
// among them), under every solver and inflation {0, 1, 1.1},
// its result must be the one-box analysis bit for bit whatever GOMAXPROCS is
// — 1 (two bands), 2 (four) and 7 (fourteen, or one per row).
func TestSerialReferenceIsOneBox(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var cases []randomCase
	for seed := uint64(1); seed <= 160; seed += 4 {
		cases = append(cases, newRandomCase(t, seed))
	}
	for seed := uint64(1001); seed < 1001+8*sparseKinds; seed++ {
		cases = append(cases, newSparseCase(t, seed, SolverEnsembleSpace, 0))
	}
	problems := 0
	for _, rc := range cases {
		m := rc.cfg.Mesh
		truth := workload.Truth(m, workload.DefaultFieldSpec, rc.cfg.Seed)
		bg, err := workload.Ensemble(m, truth, rc.cfg.N, 1.5, rc.cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		net := &obs.Network{Mesh: m, Obs: rc.cands}
		for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF} {
			for _, inflation := range []float64{0, 1, 1.1} {
				cfg := rc.cfg
				cfg.Solver, cfg.Inflation = solver, inflation
				what := fmt.Sprintf("mesh %dx%d N=%d radius (%d,%d) %v inflation %g, %d observations",
					m.NX, m.NY, cfg.N, cfg.Radius.Xi, cfg.Radius.Eta, solver, inflation, len(rc.cands))
				want, err := oneBox(cfg, bg, rc.cands)
				if err != nil {
					t.Fatalf("%s: one box: %v", what, err)
				}
				for _, procs := range []int{1, 2, 7} {
					runtime.GOMAXPROCS(procs)
					got, err := SerialReference(cfg, bg, net)
					if err != nil {
						t.Fatalf("%s, GOMAXPROCS %d: %v", what, procs, err)
					}
					full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
					sameBits(t, fmt.Sprintf("%s, GOMAXPROCS %d", what, procs),
						&Block{Box: full, Data: got}, &Block{Box: full, Data: want})
				}
				problems++
			}
		}
	}
	t.Logf("%d problems, each under GOMAXPROCS 1, 2 and 7", problems)
}

// A failing problem fails as one box does: the error of the first failing
// point in row-major order, whichever band holds it and however many bands
// there are — when every point fails, when only the lower rows can, and when
// a lower band and a higher one both fail.
func TestSerialReferenceFailsAtTheFirstPoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	// A negative error variance makes the system indefinite.
	negative := func(v float64, rows func(y int) bool) *obs.Network {
		out := &obs.Network{Mesh: net.Mesh, Obs: append([]obs.Observation{}, net.Obs...)}
		for i := range out.Obs {
			if rows(out.Obs[i].Y) {
				out.Obs[i].Variance = v
			}
		}
		return out
	}
	ny := cfg.Mesh.NY
	for _, tc := range []struct {
		name   string
		solver Solver
		net    *obs.Network
	}{
		{"every row", SolverEnsembleSpace, negative(-1e9, func(int) bool { return true })},
		{"lower half", SolverEnsembleSpace, negative(-1e9, func(y int) bool { return y >= ny/2 })},
		{"last rows and a middle row", SolverEnsembleSpace, negative(-1e9, func(y int) bool { return y == ny/2 || y >= ny-2 })},
		{"modified Cholesky, lower half", SolverModifiedCholesky, negative(-1e-9, func(y int) bool { return y >= ny/2 })},
	} {
		c := cfg
		c.Solver = tc.solver
		_, want := oneBox(c, bg, tc.net.Obs)
		if want == nil {
			t.Fatalf("%s: the one-box analysis did not fail", tc.name)
		}
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			_, err := SerialReference(c, bg, tc.net)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s, GOMAXPROCS %d: %v, one box fails with %v", tc.name, procs, err, want)
			}
		}
	}
}

// Each band keeps the hull of its own rows' reach: a sparse network — a few
// rows of observations, as on the benchmark's stream workload — transposes far
// less of the mesh than the one box did, with one core (two bands) as with
// two (four).
func TestSerialReferenceBandsTransposeLess(t *testing.T) {
	m, err := grid.NewMesh(120, 60)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, 4, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 20, 20, 0.01, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Radius: grid.Radius{Xi: 0, Eta: 1}, N: 4, Seed: seed}
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	blk := &Block{Box: full, Data: bg}
	// transposed is the region begin transposed for target, none without a
	// usable observation.
	transposed := func(target grid.Box) int {
		var ws Workspace
		if err := ws.AnalyzeInto(cfg, NewBlock(full, cfg.N), blk, net.Obs, target, nil); err != nil {
			t.Fatal(err)
		}
		if len(ws.obs) == 0 {
			return 0
		}
		return ws.region.Points()
	}
	whole := transposed(full)
	for _, procs := range []int{1, 2} {
		bands, banded := 2*procs, 0 // SerialReference's count under GOMAXPROCS procs
		for i := 0; i < bands; i++ {
			banded += transposed(referenceBand(m, i, bands))
		}
		t.Logf("GOMAXPROCS %d: %d bands transpose %d points, one box %d, the mesh has %d",
			procs, bands, banded, whole, m.Points())
		if banded >= whole || 2*banded >= m.Points() {
			t.Errorf("GOMAXPROCS %d: the bands transpose %d points, the one box %d, of a %d-point mesh", procs, banded, whole, m.Points())
		}
	}
}

// The bands tile the mesh top to bottom, full width, heights within a row.
func TestReferenceBandsTileTheMesh(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 13, 14} {
		for _, ny := range []int{n, n + 1, 2*n - 1, 120} {
			m := grid.Mesh{NX: 5, NY: ny}
			y := 0
			for i := 0; i < n; i++ {
				b := referenceBand(m, i, n)
				if b.X0 != 0 || b.X1 != m.NX || b.Y0 != y || b.Height() < ny/n || b.Height() > ny/n+1 {
					t.Fatalf("%d bands of %d rows: band %d is %v after row %d", n, ny, i, b, y)
				}
				y = b.Y1
			}
			if y != ny {
				t.Fatalf("%d bands of %d rows end at row %d", n, ny, y)
			}
		}
	}
}
