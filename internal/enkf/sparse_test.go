package enkf

import (
	"fmt"
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// What a sparse case is built around: the legal inputs newRandomCase's
// small, densely observed meshes leave out, each of which sends part of the
// target down the write-through path of AnalyzeInto and part through point.
const (
	kindWideStride  = iota // a regular network with strides up to 16
	kindLoneOffGrid        // 0–3 off-grid observations and nothing else
	kindDuplicates         // locations observed two or three times over
	kindEdges              // the mesh corners and points along every edge
	kindCluster            // several observations inside one local box
	kindUnreached          // observations, none of which reaches the target
	kindStraddle           // multi-point supports across the target boundary
	sparseKinds
)

// newSparseCase draws the case of kind seed % sparseKinds: a larger mesh than
// newRandomCase's, a target, and a network validated by obs.NewNetwork. The
// geometry depends on the seed alone, so one seed is the same problem under
// every solver and inflation.
func newSparseCase(t *testing.T, seed uint64, solver Solver, inflation float64) randomCase {
	t.Helper()
	kind := int(seed % sparseKinds)
	s := linalg.KeyedStream(seed, 0x5BA5)
	m, err := grid.NewMesh(20+s.Intn(29), 12+s.Intn(21))
	if err != nil {
		t.Fatal(err)
	}
	r := grid.Radius{Xi: s.Intn(5), Eta: s.Intn(5)}
	cfg := Config{
		Mesh: m, Radius: r, N: 3 + s.Intn(7), Seed: seed, Solver: solver,
		TaperLength: pick(s, 0, 0, 0.8, 1.5, 3), Inflation: inflation,
	}
	if band, ridge := s.Intn(5), pick(s, 0, 1e-4); solver == SolverModifiedCholesky {
		cfg.Band, cfg.Ridge = band, ridge
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, cfg.N, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}

	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	// boxFrom draws a box whose low corner is (x0, y0).
	boxFrom := func(x0, y0 int) grid.Box {
		return grid.Box{X0: x0, X1: x0 + 1 + s.Intn(m.NX-x0), Y0: y0, Y1: y0 + 1 + s.Intn(m.NY-y0)}
	}
	target := full
	switch {
	case kind == kindUnreached:
		// The observations stay left of n_x/3; the target starts beyond
		// their reach.
		beyond := m.NX/3 + r.Xi + 1
		target = boxFrom(beyond+s.Intn(m.NX-beyond), s.Intn(m.NY))
	case s.Intn(4) > 0:
		target = boxFrom(s.Intn(m.NX), s.Intn(m.NY))
	}

	var list []obs.Observation
	// add observes the truth at (x+ox, y+oy), unless that is off the mesh.
	add := func(x, y int, ox, oy float64) {
		o := obs.Observation{X: x, Y: y, OffsetX: ox, OffsetY: oy, Variance: 0.01 + s.Float64()}
		for _, sp := range o.Support() {
			if !m.Contains(sp.X, sp.Y) {
				return
			}
		}
		o.Value = o.InterpolateField(m, truth) + 0.1*s.Norm()
		list = append(list, o)
	}
	inside := func() float64 { return 0.05 + 0.9*s.Float64() } // strictly off-grid
	anywhere := func() float64 { return pick(s, 0, 0, inside()) }
	switch kind {
	case kindWideStride:
		sx, sy := 1+s.Intn(16), 1+s.Intn(16)
		for y := s.Intn(sy); y < m.NY; y += sy {
			for x := s.Intn(sx); x < m.NX; x += sx {
				add(x, y, 0, 0)
			}
		}
	case kindLoneOffGrid:
		for i := s.Intn(4); i > 0; i-- {
			add(s.Intn(m.NX-1), s.Intn(m.NY-1), inside(), inside())
		}
	case kindDuplicates:
		for i := 1 + s.Intn(4); i > 0; i-- {
			x, y, ox, oy := s.Intn(m.NX-1), s.Intn(m.NY-1), anywhere(), anywhere()
			add(x, y, ox, oy)
			list = append(list, list[len(list)-1]) // the same reading twice
			if s.Intn(2) == 0 {
				add(x, y, ox, oy) // and another reading of the same place
			}
		}
	case kindEdges:
		for _, x := range []int{0, m.NX - 1} {
			for _, y := range []int{0, m.NY - 1} {
				add(x, y, 0, 0)
			}
			add(x, s.Intn(m.NY), 0, 0)
			add(x, s.Intn(m.NY-1), 0, inside())
		}
		for _, y := range []int{0, m.NY - 1} {
			add(s.Intn(m.NX), y, 0, 0)
			add(s.Intn(m.NX-1), y, inside(), 0)
		}
		// Supports that end on the last column and the last row.
		add(m.NX-2, s.Intn(m.NY-1), inside(), inside())
		add(s.Intn(m.NX-1), m.NY-2, inside(), inside())
	case kindCluster:
		cx, cy := target.X0+s.Intn(target.Width()), target.Y0+s.Intn(target.Height())
		for i := 2 + s.Intn(5); i > 0; i-- {
			add(cx+s.Intn(2*r.Xi+1)-r.Xi, cy+s.Intn(2*r.Eta+1)-r.Eta, anywhere(), anywhere())
		}
	case kindUnreached:
		for i := 1 + s.Intn(6); i > 0; i-- {
			add(s.Intn(m.NX/3-1), s.Intn(m.NY-1), anywhere(), anywhere())
		}
	case kindStraddle:
		x, y := target.X0+s.Intn(target.Width()), target.Y0+s.Intn(target.Height())
		add(target.X0-1, y, inside(), anywhere())
		add(target.X1-1, y, inside(), anywhere())
		add(x, target.Y0-1, anywhere(), inside())
		add(x, target.Y1-1, anywhere(), inside())
		add(target.X0-1, target.Y0-1, inside(), inside())
		add(target.X1-1, target.Y1-1, inside(), inside())
	}
	if kind != kindLoneOffGrid && kind != kindUnreached && s.Intn(3) == 0 {
		for i := 1 + s.Intn(3); i > 0; i-- {
			add(s.Intn(m.NX), s.Intn(m.NY), 0, 0)
		}
	}
	net, err := obs.NewNetwork(m, list)
	if err != nil {
		t.Fatalf("seed %d: the generated network is not legal: %v", seed, err)
	}

	blk := &Block{Box: full, Data: bg}
	cands := net.Obs
	if s.Intn(2) == 0 {
		if blk, err = blk.SubBlock(target.Expand(m, r.Xi, r.Eta)); err != nil {
			t.Fatal(err)
		}
		cands = net.InBox(blk.Box)
	}
	shuffled := make([]obs.Observation, len(cands))
	for i, j := range s.Perm(len(cands)) {
		shuffled[i] = cands[j]
	}
	return randomCase{cfg: cfg, blk: blk, cands: shuffled, target: target}
}

// reachedPoints counts the target points the last begin marked reached.
func reachedPoints(ws *Workspace) int {
	n := 0
	for _, r := range ws.reach {
		if r {
			n++
		}
	}
	return n
}

// The oracle net over sparse and hostile-but-legal networks, three solvers ×
// three inflations each: the same bits at every point no observation reaches
// and for the ETKF, oracleTolerance where the other two solve. One workspace
// is carried through every case, so scratch a wide box leaves behind would
// show in the sparse one after it, and the destination is the whole block, so
// a write outside the target shows too.
func TestWorkspaceMatchesOracleOnSparseNetworks(t *testing.T) {
	var ws Workspace
	untouched := math.Float64bits(math.NaN())
	var solved, written [sparseKinds]int
	var worst float64
	for seed := uint64(1001); seed < 1001+8*sparseKinds; seed++ {
		kind := int(seed % sparseKinds)
		for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF} {
			for _, inflation := range []float64{0, 1, 1.1} {
				rc := newSparseCase(t, seed, solver, inflation)
				what := fmt.Sprintf("seed %d kind %d (%v)", seed, kind, rc)
				want, err := rc.cfg.oracleBox(rc.blk, rc.cands, rc.target)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				dst := NewBlock(rc.blk.Box, rc.cfg.N)
				for _, member := range dst.Data {
					for i := range member {
						member[i] = math.NaN()
					}
				}
				if err := ws.AnalyzeInto(rc.cfg, dst, rc.blk, rc.cands, rc.target, nil); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got, err := dst.SubBlock(rc.target)
				if err != nil {
					t.Fatal(err)
				}
				worst = max(worst, agreesWithOracle(t, what, solver, got, want, ws.reach))
				for k, member := range dst.Data {
					for i, v := range member {
						x, y := dst.Box.X0+i%dst.Box.Width(), dst.Box.Y0+i/dst.Box.Width()
						if !rc.target.Contains(x, y) && math.Float64bits(v) != untouched {
							t.Fatalf("%s: member %d written at (%d,%d), outside the target", what, k, x, y)
						}
					}
				}

				reached := reachedPoints(&ws)
				solved[kind] += reached
				written[kind] += rc.target.Points() - reached
				if kind == kindUnreached && reached > 0 {
					t.Errorf("%s: %d points reached in a case built to have none", what, reached)
				}

				samePoint(t, what, rc, got, linalg.KeyedStream(seed, 0x9017))
			}
		}
	}
	t.Logf("largest deviation from the oracle: %.2g of the field scale", worst)
	// The generator has to keep both paths of AnalyzeInto in play.
	for kind := range solved {
		t.Logf("kind %d: %d points solved, %d written through", kind, solved[kind], written[kind])
		if written[kind] == 0 || (solved[kind] == 0) != (kind == kindUnreached) {
			t.Errorf("kind %d: %d points solved and %d written through", kind, solved[kind], written[kind])
		}
	}
}

// Work ceilings, exact rather than timed: what the analysis transposes
// point-major is N values for each point of the region the reached points'
// local boxes span — not for each point of the stage — and nothing at all when
// no observation reaches the target.
func TestAnalysisWorkFollowsObservations(t *testing.T) {
	const members, seed = 8, 5
	m, err := grid.NewMesh(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Radius: grid.Radius{Xi: 2, Eta: 1}, N: members, Seed: seed, Inflation: 1.05}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	blk := &Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: bg}
	target := grid.Box{X0: 2, X1: 62, Y0: 3, Y1: 13} // 60×10
	one := []obs.Observation{{X: 30, Y: 8, Value: truth[m.Index(30, 8)], Variance: 0.05}}
	far := []obs.Observation{{X: 0, Y: 0, Value: truth[0], Variance: 0.05}}

	for _, tc := range []struct {
		name            string
		cands           []obs.Observation
		reached, region int // points
	}{
		// (2ξ+1)(2η+1) = 15 points see the observation; their local boxes
		// span (4ξ+1)(4η+1) = 45.
		{"one observation", one, 15, 45},
		{"an observation out of reach", far, 0, 0},
		{"no observation", nil, 0, 0},
	} {
		var ws Workspace
		got := NewBlock(target, members)
		if err := ws.AnalyzeInto(cfg, got, blk, tc.cands, target, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := cfg.oracleBox(blk, tc.cands, target)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		agreesWithOracle(t, tc.name, cfg.Solver, got, want, ws.reach)
		if reached := reachedPoints(&ws); reached != tc.reached {
			t.Errorf("%s: %d points go through the solver, want %d of %d", tc.name, reached, tc.reached, target.Points())
		}
		for name, buf := range map[string][]float64{"x": ws.x, "u": ws.u} {
			if cap(buf) != members*tc.region {
				t.Errorf("%s: point-major %s holds %d values, want %d members × %d points (the stage has %d points)",
					tc.name, name, cap(buf), members, tc.region, target.Expand(m, 2, 1).Points())
			}
		}
		if len(ws.v) != members*len(ws.obs) || len(ws.obs) > len(tc.cands) {
			t.Errorf("%s: %d observation rows of %d values for %d candidates", tc.name, len(ws.obs), len(ws.v), len(tc.cands))
		}
	}
}

// rowBand returns the most observations of ws whose first support row lies in
// one window of 2η+1 grid rows: what the rows of a local box can hold.
func rowBand(ws *Workspace, eta int) int {
	most := 0
	for y := ws.region.Y0; y < ws.region.Y1; y++ {
		n := 0
		for i := range ws.obs {
			if r := ws.obs[i].sup[0].Y; r >= y && r <= y+2*eta {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// The V·Vᵀ cache as exact ceilings. A pair of observations has one entry,
// filled the first time a point asks for it and not again, so the entries
// filled after a box count the products computed: on the dense benchmark
// sub-domain they are exactly the pairs that share some point's local box, and
// each holds what linalg.Dot gives. The cache's size is the observations times
// what the rows of one local box hold — on a wide box far from observations².
func TestPairProductsAreComputedOncePerBox(t *testing.T) {
	cfg, blk, cands, sub := denseSubDomain(t)
	var ws Workspace
	if err := ws.AnalyzeInto(cfg, NewBlock(sub, cfg.N), blk, cands, sub, nil); err != nil {
		t.Fatal(err)
	}
	type pair struct{ i, j int }
	shared := map[pair]bool{}
	for y := sub.Y0; y < sub.Y1; y++ {
		for x := sub.X0; x < sub.X1; x++ {
			lb := cfg.Radius.LocalBox(cfg.Mesh, x, y)
			var in []int
			for i := range ws.obs {
				if ws.obs[i].within(lb) {
					in = append(in, i)
					for _, j := range in {
						shared[pair{i, j}] = true
					}
				}
			}
		}
	}
	if want := rowBand(&ws, cfg.Radius.Eta); ws.band != want || len(ws.pair) != len(ws.obs)*want {
		t.Errorf("dense: %d cached products in rows of %d for %d observations, of which the rows of a local box hold %d", len(ws.pair), ws.band, len(ws.obs), want)
	}
	filled := 0
	for i := range ws.obs {
		for k, v := range ws.pair[i*ws.band:][:ws.band] {
			if v != v {
				continue
			}
			filled++
			if j := i - k; j < 0 || !shared[pair{i, j}] {
				t.Fatalf("dense: a product was computed for observations %d and %d, which share no local box", i, j)
			} else if want := linalg.Dot(ws.vrow(i, cfg.N), ws.vrow(j, cfg.N)); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("dense: the cached product of observations %d and %d is %v, want %v", i, j, v, want)
			}
		}
	}
	if filled != len(shared) {
		t.Errorf("dense: %d products computed for %d pairs of observations that share a local box", filled, len(shared))
	}
	t.Logf("dense: %d observations, %d products computed (%d entries), %d points", len(ws.obs), filled, len(ws.pair), sub.Points())

	// A wide, sparsely observed box: 1200 observations, 400 in the rows of a
	// local box.
	const members, seed = 4, 3
	m, err := grid.NewMesh(400, 12)
	if err != nil {
		t.Fatal(err)
	}
	wide := Config{Mesh: m, Radius: grid.Radius{Xi: 2, Eta: 1}, N: members, Seed: seed}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 2, 2, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	ws = Workspace{}
	if err := ws.AnalyzeInto(wide, NewBlock(full, members), &Block{Box: full, Data: bg}, net.Obs, full, nil); err != nil {
		t.Fatal(err)
	}
	if want := rowBand(&ws, wide.Radius.Eta); len(ws.obs) != 1200 || want != 400 || cap(ws.pair) != len(ws.obs)*want {
		t.Errorf("wide: %d cached products for %d observations, of which the rows of a local box hold %d", cap(ws.pair), len(ws.obs), want)
	}
}
