package enkf

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// randomCase is one seeded local-analysis problem: a block, shuffled
// candidates and a target inside the block's reach.
type randomCase struct {
	cfg    Config
	blk    *Block
	cands  []obs.Observation
	target grid.Box
}

func (rc randomCase) String() string {
	return fmt.Sprintf("mesh %dx%d N=%d radius (%d,%d) %v band %d taper %g inflation %g, %d candidates, block %v, target %v",
		rc.cfg.Mesh.NX, rc.cfg.Mesh.NY, rc.cfg.N, rc.cfg.Radius.Xi, rc.cfg.Radius.Eta, rc.cfg.Solver,
		rc.cfg.Band, rc.cfg.TaperLength, rc.cfg.Inflation, len(rc.cands), rc.blk.Box, rc.target)
}

// pick returns a uniform element of vs.
func pick[T any](s *linalg.Stream, vs ...T) T { return vs[s.Intn(len(vs))] }

// newRandomCase draws mesh, radius, ensemble size, solver, localization,
// inflation, a mixed on-grid/off-grid network with random strides, a random
// target sub-box, a block that is either the whole mesh or exactly the
// target's expansion, and the candidates in shuffled order.
func newRandomCase(t *testing.T, seed uint64) randomCase {
	t.Helper()
	s := linalg.KeyedStream(seed, 0xCA5E)
	m, err := grid.NewMesh(6+s.Intn(15), 5+s.Intn(10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mesh: m, Radius: grid.Radius{Xi: s.Intn(4), Eta: s.Intn(4)}, N: 3 + s.Intn(7), Seed: seed,
		Solver:      pick(s, SolverEnsembleSpace, SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF),
		TaperLength: pick(s, 0, 0, 0.8, 1.5, 3),
		Inflation:   pick(s, 0, 1, 1.1),
	}
	if cfg.Solver == SolverModifiedCholesky {
		cfg.Band, cfg.Ridge = s.Intn(5), pick(s, 0, 1e-4)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, cfg.N, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := obs.StridedNetwork(m, truth, 1+s.Intn(4), 1+s.Intn(4), 0.01+s.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	offGrid, err := obs.RandomOffGridNetwork(m, truth, s.Intn(25), 0.01+s.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.NewNetwork(m, append(append([]obs.Observation{}, strided.Obs...), offGrid.Obs...))
	if err != nil {
		t.Fatal(err)
	}

	x0, y0 := s.Intn(m.NX), s.Intn(m.NY)
	target := grid.Box{X0: x0, X1: x0 + 1 + s.Intn(m.NX-x0), Y0: y0, Y1: y0 + 1 + s.Intn(m.NY-y0)}
	blk := &Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: bg}
	cands := net.Obs
	if s.Intn(2) == 0 {
		if blk, err = blk.SubBlock(target.Expand(m, cfg.Radius.Xi, cfg.Radius.Eta)); err != nil {
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

// sameBits fails unless the two blocks hold bit-identical data.
func sameBits(t *testing.T, what string, got, want *Block) {
	t.Helper()
	if got.Box != want.Box || got.Members() != want.Members() {
		t.Fatalf("%s: block %v × %d, want %v × %d", what, got.Box, got.Members(), want.Box, want.Members())
	}
	for k := range want.Data {
		for i, v := range want.Data[k] {
			if math.Float64bits(got.Data[k][i]) != math.Float64bits(v) {
				t.Fatalf("%s: member %d point %d is %v, oracle %v (diff %g)", what, k, i, got.Data[k][i], v, got.Data[k][i]-v)
			}
		}
	}
}

// oracleTolerance is how far, relative to the field scale, a solved point may
// lie from the oracle. The ensemble-space and modified-Cholesky solvers factor
// the oracle's matrix, bit for bit, but solve for the one combination of
// A⁻¹·D's rows a point uses instead of all of A⁻¹·D, so the substitutions
// round differently.
const oracleTolerance = 1e-12

// agreesWithOracle fails unless got, an analysis over want's box, equals the
// oracle's: bit for bit for the ETKF and wherever solved (row-major over the
// box) is false, and within oracleTolerance of the largest |value| of the
// oracle's field elsewhere. It returns the largest deviation in those units.
func agreesWithOracle(t *testing.T, what string, solver Solver, got, want *Block, solved []bool) float64 {
	t.Helper()
	if got.Box != want.Box || got.Members() != want.Members() {
		t.Fatalf("%s: block %v × %d, want %v × %d", what, got.Box, got.Members(), want.Box, want.Members())
	}
	var scale, worst float64
	for _, member := range want.Data {
		for _, v := range member {
			scale = max(scale, math.Abs(v))
		}
	}
	for k := range want.Data {
		for i, v := range want.Data[k] {
			g := got.Data[k][i]
			if math.Float64bits(g) == math.Float64bits(v) {
				continue
			}
			if solver == SolverETKF || !solved[i] {
				t.Fatalf("%s: member %d point %d is %v, oracle %v (diff %g): must be the same bits", what, k, i, g, v, g-v)
			}
			dev := math.Abs(g-v) / scale
			if !(dev <= oracleTolerance) {
				t.Fatalf("%s: member %d point %d is %v, oracle %v: %.3g of the field scale %g, tolerance %g", what, k, i, g, v, dev, scale, oracleTolerance)
			}
			worst = max(worst, dev)
		}
	}
	return worst
}

// samePoint fails unless AnalyzePoint, at a point of the target drawn from s,
// gives the bits box holds there: a point's analysis does not depend on the
// box it is analysed in.
func samePoint(t *testing.T, what string, rc randomCase, box *Block, s *linalg.Stream) {
	t.Helper()
	x, y := rc.target.X0+s.Intn(rc.target.Width()), rc.target.Y0+s.Intn(rc.target.Height())
	xa, err := rc.cfg.AnalyzePoint(rc.blk, rc.cands, x, y)
	if err != nil {
		t.Fatalf("%s: point (%d,%d): %v", what, x, y, err)
	}
	for k, v := range xa {
		if math.Float64bits(v) != math.Float64bits(box.At(k, x, y)) {
			t.Fatalf("%s: AnalyzePoint(%d,%d) member %d is %v, the box analysis has %v", what, x, y, k, v, box.At(k, x, y))
		}
	}
}

// The workspace must reproduce the per-point oracle over generated problems,
// whatever the candidate order: bit for bit for the ETKF and at every point no
// observation reaches, within oracleTolerance where the ensemble-space and
// modified-Cholesky solvers solve.
func TestWorkspaceMatchesOracle(t *testing.T) {
	var worst float64
	for seed := uint64(1); seed <= 160; seed++ {
		rc := newRandomCase(t, seed)
		what := fmt.Sprintf("seed %d (%v)", seed, rc)
		want, err := rc.cfg.oracleBox(rc.blk, rc.cands, rc.target)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		var ws Workspace
		got := NewBlock(rc.target, rc.cfg.N)
		if err := ws.AnalyzeInto(rc.cfg, got, rc.blk, rc.cands, rc.target, nil); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		worst = max(worst, agreesWithOracle(t, what, rc.cfg.Solver, got, want, ws.reach))

		// One point analysed alone sees a one-point box's precompute.
		samePoint(t, what, rc, got, linalg.KeyedStream(seed, 0x9017))
	}
	t.Logf("largest deviation from the oracle: %.2g of the field scale", worst)
}

// cut tiles b with at most 2^depth random sub-boxes, appended to out.
func cut(s *linalg.Stream, b grid.Box, depth int, out []grid.Box) []grid.Box {
	w, h := b.Width(), b.Height()
	if depth == 0 || w*h == 1 || s.Intn(4) == 0 {
		return append(out, b)
	}
	lo, hi := b, b
	if w > 1 && (h == 1 || s.Intn(2) == 0) {
		lo.X1 = b.X0 + 1 + s.Intn(w-1)
		hi.X0 = lo.X1
	} else {
		lo.Y1 = b.Y0 + 1 + s.Intn(h-1)
		hi.Y0 = lo.Y1
	}
	return cut(s, hi, depth-1, cut(s, lo, depth-1, out))
}

// What the parallel paths and the benchmark's MaxAbsDiffFields == 0 gate rest
// on: a point's analysis is the same bits whichever box it is analysed in.
// Over the generated problems of the oracle nets, the target is cut into
// random sub-boxes, each analysed from its own sub-block and its own
// candidates — every observation of that block and a random half of the others,
// in the problem's order, which is the order the solvers sum in and so part of
// the problem — through one workspace that has just analysed something else
// (another solver, another ensemble size, often a larger box); together they
// must equal the whole-box analysis, and so must a lone AnalyzePoint. The
// same sub-boxes analysed from every candidate through one perturbation table
// they share, as the compute ranks of a run do, must equal it too: the table
// makes each row once where the sub-boxes drew it each on its own.
func TestAnalysisIsBoxIndependent(t *testing.T) {
	var cases []randomCase
	for seed := uint64(1); seed <= 160; seed++ {
		cases = append(cases, newRandomCase(t, seed))
	}
	for seed := uint64(1001); seed < 1001+8*sparseKinds; seed++ {
		for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF} {
			for _, inflation := range []float64{0, 1, 1.1} {
				cases = append(cases, newSparseCase(t, seed, solver, inflation))
			}
		}
	}
	var decoys []randomCase
	for i := 0; i < 6; i++ {
		d := newRandomCase(t, uint64(5000+i))
		d.cfg.Solver = Solver(i % 3)
		decoys = append(decoys, d)
	}

	var ws, wsShared Workspace
	boxes, next := 0, 0
	for ci, rc := range cases {
		what := fmt.Sprintf("case %d (%v)", ci, rc)
		whole, err := rc.cfg.AnalyzeBox(rc.blk, rc.cands, rc.target)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		s := linalg.KeyedStream(uint64(ci), 0xB0C5)
		got, shared := NewBlock(rc.target, rc.cfg.N), NewBlock(rc.target, rc.cfg.N)
		draws := obs.NewPerturbations(rc.cands, rc.cfg.N, rc.cfg.Seed)
		for _, sub := range cut(s, rc.target, 3, nil) {
			d := decoys[next%len(decoys)]
			if d.cfg.Solver == rc.cfg.Solver {
				next++
				d = decoys[next%len(decoys)]
			}
			next++
			if err := ws.AnalyzeInto(d.cfg, NewBlock(d.target, d.cfg.N), d.blk, d.cands, d.target, nil); err != nil {
				t.Fatalf("decoy (%v): %v", d, err)
			}

			blk, err := rc.blk.SubBlock(sub.Expand(rc.cfg.Mesh, rc.cfg.Radius.Xi, rc.cfg.Radius.Eta))
			if err != nil {
				t.Fatal(err)
			}
			var cands []obs.Observation
			for _, o := range rc.cands {
				if obs.ObsInBox(o, blk.Box) || s.Intn(2) == 0 {
					cands = append(cands, o)
				}
			}
			if err := ws.AnalyzeInto(rc.cfg, got, blk, cands, sub, nil); err != nil {
				t.Fatalf("%s: sub-box %v: %v", what, sub, err)
			}
			if err := wsShared.AnalyzeInto(d.cfg, NewBlock(d.target, d.cfg.N), d.blk, d.cands, d.target, nil); err != nil {
				t.Fatalf("decoy (%v): %v", d, err)
			}
			if err := wsShared.AnalyzeInto(rc.cfg, shared, blk, rc.cands, sub, draws); err != nil {
				t.Fatalf("%s: sub-box %v with the shared table: %v", what, sub, err)
			}
			boxes++
		}
		sameBits(t, what+": sub-boxes against the whole box", got, whole)
		sameBits(t, what+": sub-boxes sharing one table against the whole box", shared, whole)
		if draws.Drawn() > len(rc.cands) {
			t.Fatalf("%s: the shared table drew %d rows for %d candidates", what, draws.Drawn(), len(rc.cands))
		}
		draws.Release()
		samePoint(t, what, rc, whole, s)
	}
	t.Logf("%d problems analysed as %d sub-boxes", len(cases), boxes)
}

// A workspace carried across boxes of growing then shrinking size and
// observation count, and across solvers, must equal a fresh one every time:
// no scratch, and no cached product, may leak from one box into the next.
func TestWorkspaceReuseEqualsFresh(t *testing.T) {
	const members, seed = 7, 77
	m, _ := grid.NewMesh(22, 14)
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	blk := &Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: bg}
	dense, err := obs.StridedNetwork(m, truth, 1, 1, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := obs.RandomOffGridNetwork(m, truth, 12, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		target grid.Box
		cands  []obs.Observation
		solver Solver
		radius grid.Radius
	}{
		{grid.Box{X0: 3, X1: 4, Y0: 3, Y1: 4}, sparse.Obs, SolverEnsembleSpace, grid.Radius{Xi: 1, Eta: 1}},
		{grid.Box{X0: 2, X1: 8, Y0: 2, Y1: 6}, dense.Obs, SolverEnsembleSpace, grid.Radius{Xi: 2, Eta: 1}},
		// The same shape one column over: every slot index and every pair the
		// points ask for recur, for other observations — a V·Vᵀ product kept
		// from the box before would be used here.
		{grid.Box{X0: 3, X1: 9, Y0: 2, Y1: 6}, dense.Obs, SolverEnsembleSpace, grid.Radius{Xi: 2, Eta: 1}},
		{grid.Box{X0: 0, X1: 22, Y0: 0, Y1: 14}, dense.Obs, SolverModifiedCholesky, grid.Radius{Xi: 3, Eta: 2}},
		{grid.Box{X0: 0, X1: 22, Y0: 0, Y1: 14}, dense.Obs, SolverETKF, grid.Radius{Xi: 3, Eta: 2}},
		{grid.Box{X0: 5, X1: 12, Y0: 4, Y1: 9}, sparse.Obs, SolverModifiedCholesky, grid.Radius{Xi: 1, Eta: 2}},
		{grid.Box{X0: 5, X1: 9, Y0: 4, Y1: 6}, nil, SolverEnsembleSpace, grid.Radius{Xi: 2, Eta: 2}},
		{grid.Box{X0: 6, X1: 9, Y0: 5, Y1: 7}, sparse.Obs, SolverETKF, grid.Radius{Xi: 1, Eta: 1}},
		{grid.Box{X0: 10, X1: 11, Y0: 7, Y1: 8}, dense.Obs, SolverEnsembleSpace, grid.Radius{Xi: 0, Eta: 0}},
	}
	var ws Workspace
	for i, st := range steps {
		cfg := Config{Mesh: m, Radius: st.radius, N: members, Seed: seed, Solver: st.solver, TaperLength: 1.5, Inflation: 1.05}
		got := NewBlock(st.target, members)
		if err := ws.AnalyzeInto(cfg, got, blk, st.cands, st.target, nil); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := cfg.AnalyzeBox(blk, st.cands, st.target)
		if err != nil {
			t.Fatalf("step %d: fresh: %v", i, err)
		}
		sameBits(t, fmt.Sprintf("step %d", i), got, want)
	}
}

// The three failure modes of the local analysis keep their messages: the
// workspace and the oracle must fail identically.
func TestWorkspaceErrorsMatchOracle(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	full := &Block{Box: grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}, Data: bg}
	inner := grid.Box{X0: 2, X1: 9, Y0: 2, Y1: 8}
	small, err := full.SubBlock(inner)
	if err != nil {
		t.Fatal(err)
	}
	// A negative error variance makes the system indefinite: a hugely
	// negative R for V·Vᵀ/(N−1)+R, a hugely negative R⁻¹ for B̂⁻¹+HᵀR⁻¹H.
	withVariance := func(v float64) []obs.Observation {
		out := append([]obs.Observation{}, net.Obs...)
		for i := range out {
			out[i].Variance = v
		}
		return out
	}
	negative := withVariance(-1e9)
	for _, tc := range []struct {
		name, want string
		blk        *Block
		cands      []obs.Observation
	}{
		{"local box outside the block", "not contained in block", small, net.Obs},
		{"member-count mismatch", "members, config says", &Block{Box: full.Box, Data: bg[1:]}, net.Obs},
		{"non-SPD system", "innovation covariance not SPD", full, negative},
	} {
		_, oracleErr := cfg.oracleBox(tc.blk, tc.cands, inner)
		_, err := cfg.AnalyzeBox(tc.blk, tc.cands, inner)
		if err == nil || oracleErr == nil || err.Error() != oracleErr.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AnalyzeBox error %q, oracle %q, want both to contain %q", tc.name, err, oracleErr, tc.want)
		}
		_, oracleErr = cfg.oraclePoint(tc.blk, tc.cands, inner.X0, inner.Y0)
		_, err = cfg.AnalyzePoint(tc.blk, tc.cands, inner.X0, inner.Y0)
		if err == nil || oracleErr == nil || err.Error() != oracleErr.Error() {
			t.Errorf("%s: AnalyzePoint error %q, oracle %q", tc.name, err, oracleErr)
		}
	}
	mc := cfg
	mc.Solver = SolverModifiedCholesky
	_, oracleErr := mc.oraclePoint(full, withVariance(-1e-9), 5, 5)
	_, err = mc.AnalyzePoint(full, withVariance(-1e-9), 5, 5)
	if err == nil || oracleErr == nil || err.Error() != oracleErr.Error() || !strings.Contains(err.Error(), "analysis matrix not SPD") {
		t.Errorf("modified Cholesky: AnalyzePoint error %q, oracle %q", err, oracleErr)
	}
	if err := new(Workspace).AnalyzeInto(cfg, NewBlock(grid.Box{X0: 3, X1: 5, Y0: 3, Y1: 5}, cfg.N), full, net.Obs, inner, nil); err == nil {
		t.Error("a destination smaller than the target was accepted")
	}
}

// A table made for other candidates, members or seed is refused before a
// point is analysed: its rows would be another problem's perturbations.
func TestForeignPerturbationTableIsRefused(t *testing.T) {
	cfg, bg, net, _ := smallProblem(t, SolverEnsembleSpace)
	full := &Block{Box: grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}, Data: bg}
	cp := append([]obs.Observation{}, net.Obs...)
	for _, tc := range []struct {
		name  string
		draws *obs.Perturbations
	}{
		{"an equal copy of the candidates", obs.NewPerturbations(cp, cfg.N, cfg.Seed)},
		{"another member count", obs.NewPerturbations(net.Obs, cfg.N+1, cfg.Seed)},
		{"another seed", obs.NewPerturbations(net.Obs, cfg.N, cfg.Seed+1)},
	} {
		err := new(Workspace).AnalyzeInto(cfg, NewBlock(full.Box, cfg.N), full, net.Obs, full.Box, tc.draws)
		if err == nil || !strings.Contains(err.Error(), "perturbation table") {
			t.Errorf("%s: %v, want the table refused", tc.name, err)
		}
		if tc.draws.Drawn() != 0 {
			t.Errorf("%s: %d rows drawn before the refusal", tc.name, tc.draws.Drawn())
		}
		tc.draws.Release()
	}
}

// denseSubDomain is the benchmark's dense geometry (72×36 mesh, N=32, radius
// (4,2), every second point observed, 4×2 sub-domains) seen from sub-domain
// (1,0): its expansion block and candidates, as the engine delivers them.
func denseSubDomain(tb testing.TB) (cfg Config, blk *Block, cands []obs.Observation, sub grid.Box) {
	tb.Helper()
	const seed = 1
	m, err := grid.NewMesh(72, 36)
	if err != nil {
		tb.Fatal(err)
	}
	cfg = Config{Mesh: m, Radius: grid.Radius{Xi: 4, Eta: 2}, N: 32, Seed: seed}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, cfg.N, 1.5, seed)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 2, 2, 0.01, seed)
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		tb.Fatal(err)
	}
	full := &Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: bg}
	if blk, err = full.SubBlock(dec.Expansion(1, 0)); err != nil {
		tb.Fatal(err)
	}
	return cfg, blk, net.InBox(blk.Box), dec.SubDomain(1, 0)
}

// Allocation ceilings: the analysis of a box allocates per box, never per
// point; a lone point stays within what it cost before its box kept V·Vᵀ
// products (18 objects; 16 now that the selection is sized once per box; 509
// with the per-point rebuild); a point no observation reaches costs its result.
func TestAnalysisAllocationCeilings(t *testing.T) {
	cfg, blk, cands, sub := denseSubDomain(t)
	boxAllocs := func(target grid.Box) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := cfg.AnalyzeBox(blk, cands, target); err != nil {
				t.Fatal(err)
			}
		})
	}
	row := grid.Box{X0: sub.X0, X1: sub.X1, Y0: sub.Y0, Y1: sub.Y0 + 1}
	if whole, one := boxAllocs(sub), boxAllocs(row); whole > one+8 {
		t.Errorf("AnalyzeBox allocates %v objects for %d points but %v for %d: allocation grows with the points",
			whole, sub.Points(), one, row.Points())
	}

	x, y := sub.X0+sub.Width()/2, sub.Y0+sub.Height()/2
	point := testing.AllocsPerRun(20, func() {
		if _, err := cfg.AnalyzePoint(blk, cands, x, y); err != nil {
			t.Fatal(err)
		}
	})
	if point > 18 {
		t.Errorf("AnalyzePoint at the dense centre allocates %v objects, ceiling 18", point)
	}

	lonely := []obs.Observation{{X: blk.Box.X0, Y: blk.Box.Y0, Value: 1, Variance: 1}}
	noObs := testing.AllocsPerRun(20, func() {
		if _, err := cfg.AnalyzePoint(blk, lonely, x, y); err != nil {
			t.Fatal(err)
		}
	})
	if noObs > 2 {
		t.Errorf("AnalyzePoint with no observation in reach allocates %v objects, ceiling 2", noObs)
	}
}
