package enkf

import (
	"fmt"
	"math"
	"slices"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
)

// Workspace is the box-scoped state of the local analysis (DESIGN.md, "The
// local-analysis workspace" and "A local solve that costs what it uses").
// Everything that depends on a grid point or an observation alone — the
// inflated ensemble rows X, their deviations U, and each observation's
// V = H·U row and innovation — is computed once per box, over the part of it
// the observations reach, and the product of two V rows the first time a
// point needs it; a point there only selects and tapers the observations of
// its local box, assembles its system and solves it for one right-hand side,
// in scratch that is reused from point to point and from box to box; a point
// no observation reaches is written through from the block. The zero value
// is ready to use and a used one may be kept for any later analysis; a
// Workspace must not be shared between goroutines.
type Workspace struct {
	region grid.Box  // what the reached points' local boxes span, where x, u and the observations live
	x, u   []float64 // point-major over region: inflated members and their deviations
	obs    []boxObs  // the usable candidates, ordered by grid row then candidate order
	rowEnd []int     // obs of region row r: obs[rowEnd[r-1]:rowEnd[r]]
	v, d   []float64 // per observation: V = H·U row, innovation row Yˢ − H·Xᵇ

	// Per-point scratch.
	sel  []selected
	a, b linalg.Matrix // the system to factor; the ETKF's factor and transform
	ul   linalg.Matrix // the local box's rows of U (modified Cholesky)
	rhs  []float64     // the one right-hand side, overwritten by its solution
	xa   []float64
	mc   linalg.ModCholScratch
	eig  linalg.EigenScratch

	// What AnalyzeInto writes through instead of solving. (New fields go
	// last: the offsets above are in the solvers' instruction encodings.)
	reach []bool    // over the target, row-major: the points some observation can reach
	mean  []float64 // ensemble means along one run of unreached points

	// V·Vᵀ, which depends on neither the point nor the box: entry
	// pair[i*band+i-j] is v_i·v_j for slots j ≤ i, NaN until a point asks for
	// it. Two observations of one selection lie in one local box's rows, so
	// fewer than band slots apart.
	band int // the most observations the rows of one local box hold
	pair []float64
}

// boxObs is one observation usable inside the workspace's region.
type boxObs struct {
	order  int // position among the candidates
	sup    [4]obs.Support
	nsup   int
	px, py float64 // position, for the taper
	vari   float64
	value  float64 // observed y; the ETKF reduces it to the mean innovation y − mean(H·xᵇ)
}

// within reports whether the observation's whole support lies inside b.
func (o *boxObs) within(b grid.Box) bool {
	for _, s := range o.sup[:o.nsup] {
		if !b.Contains(s.X, s.Y) {
			return false
		}
	}
	return true
}

// selected is one observation of a point's local box with its effective
// (tapered) error variance.
type selected struct {
	slot   int // index into Workspace.obs
	effVar float64
}

// grow returns s resized to n elements, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// inflate applies the multiplicative inflation x ← mean + λ(x − mean) to one
// grid point's members.
func (c Config) inflate(row []float64) {
	if c.Inflation <= 0 || c.Inflation == 1 {
		return
	}
	var mean float64
	for _, v := range row {
		mean += v
	}
	mean /= float64(len(row))
	for k := range row {
		row[k] = mean + c.Inflation*(row[k]-mean)
	}
}

// loadEnsemble fills x with the region's members, point-major and inflated,
// and u with their deviations from the ensemble mean.
func (w *Workspace) loadEnsemble(c Config, blk *Block) {
	n, region := c.N, w.region
	pts, width := region.Points(), region.Width()
	w.x, w.u = grow(w.x, pts*n), grow(w.u, pts*n)
	for k, member := range blk.Data {
		for y := region.Y0; y < region.Y1; y++ {
			src := member[(y-blk.Box.Y0)*blk.Box.Width()+region.X0-blk.Box.X0:][:width]
			for i, val := range src {
				w.x[((y-region.Y0)*width+i)*n+k] = val
			}
		}
	}
	for p := 0; p < pts; p++ {
		c.inflate(w.x[p*n : (p+1)*n])
	}
	copy(w.u, w.x)
	linalg.CenterRows(&linalg.Matrix{Rows: pts, Cols: n, Data: w.u})
}

// loadObservations fills, per usable observation, the row V = H·U and the
// innovation row Yˢ − H·Xᵇ, its perturbations copied from draws or, with a
// nil table, drawn in place. The deterministic transform uses no
// perturbations, only the mean innovation y − mean(H·xᵇ).
func (w *Workspace) loadObservations(c Config, candidates []obs.Observation, draws *obs.Perturbations) {
	n := c.N
	w.v = grow(w.v, len(w.obs)*n)
	clear(w.v)
	if c.Solver != SolverETKF {
		w.d = grow(w.d, len(w.obs)*n)
	}
	for i := range w.obs {
		o := &w.obs[i]
		sup := o.sup[:o.nsup]
		vrow := w.vrow(i, n)
		for _, s := range sup {
			urow := w.row(w.u, s.X, s.Y, n)
			for k := range vrow {
				vrow[k] += s.W * urow[k]
			}
		}
		hxb := func(k int) float64 {
			var h float64
			for _, s := range sup {
				h += s.W * w.row(w.x, s.X, s.Y, n)[k]
			}
			return h
		}
		if c.Solver == SolverETKF {
			var hxbMean float64
			for k := 0; k < n; k++ {
				hxbMean += hxb(k)
			}
			o.value -= hxbMean / float64(n)
			continue
		}
		drow := w.drow(i, n)
		if draws != nil {
			copy(drow, draws.Row(o.order))
		} else {
			obs.CenteredPerturbationsInto(drow, candidates[o.order], c.Seed)
		}
		for k := range drow {
			drow[k] -= hxb(k)
		}
	}
}

// row returns grid point (x, y)'s members in the point-major buffer buf.
func (w *Workspace) row(buf []float64, x, y, n int) []float64 {
	p := (y-w.region.Y0)*w.region.Width() + x - w.region.X0
	return buf[p*n : (p+1)*n]
}

// vrow and drow return observation slot i's V = H·U and innovation rows.
func (w *Workspace) vrow(i, n int) []float64 { return w.v[i*n : (i+1)*n] }
func (w *Workspace) drow(i, n int) []float64 { return w.d[i*n : (i+1)*n] }

// point writes the analysis ensemble at grid point (x, y) into out, which
// has length N. blk must be the block begin was called with and the point one
// of the target begin marked reached (any of them when no observation is
// usable: the region covers the reached points' local boxes only).
func (w *Workspace) point(c Config, blk *Block, x, y int, out []float64) error {
	lb := c.Radius.LocalBox(c.Mesh, x, y)
	if lb.Intersect(blk.Box) != lb {
		return fmt.Errorf("enkf: local box %v of point (%d,%d) not contained in block %v", lb, x, y, blk.Box)
	}
	if blk.Members() != c.N {
		return fmt.Errorf("enkf: block has %d members, config says %d", blk.Members(), c.N)
	}
	if len(w.obs) == 0 {
		for k := range out {
			out[k] = blk.At(k, x, y)
		}
		c.inflate(out)
		return nil
	}

	// Select the observations of the local box, tapered, in candidate order
	// so the solver factors the same matrix whatever the bucketing.
	w.sel = w.sel[:0]
	first := 0
	if r := lb.Y0 - w.region.Y0; r > 0 {
		first = w.rowEnd[r-1]
	}
	for i := first; i < w.rowEnd[lb.Y1-1-w.region.Y0]; i++ {
		o := &w.obs[i]
		if !o.within(lb) {
			continue
		}
		tw := c.taper(x, y, o.px, o.py)
		if tw < 1e-10 {
			continue
		}
		w.sel = append(w.sel, selected{slot: i, effVar: o.vari / tw})
	}
	slices.SortFunc(w.sel, func(p, q selected) int { return w.obs[p.slot].order - w.obs[q.slot].order })

	bg := w.row(w.x, x, y, c.N)
	if len(w.sel) == 0 {
		// No observations in reach: the analysis equals the background.
		copy(out, bg)
		return nil
	}
	switch c.Solver {
	case SolverEnsembleSpace:
		return w.solveEnsembleSpace(c, bg, w.row(w.u, x, y, c.N), out)
	case SolverModifiedCholesky:
		return w.solveModifiedCholesky(c, lb, bg, (y-lb.Y0)*lb.Width()+x-lb.X0, out)
	case SolverETKF:
		return w.solveETKF(c, bg, w.row(w.u, x, y, c.N), out)
	default:
		return fmt.Errorf("enkf: unknown solver %d", c.Solver)
	}
}

// solveEnsembleSpace computes δxa at the centre point,
// u_c·Vᵀ·(V·Vᵀ/(N−1) + R)⁻¹·D/(N−1) with u_c the centre row of U, as
// zᵀ·D where A·z = V·u_c/(N−1): A is symmetric, so one solve gives the only
// combination of A⁻¹·D's rows the point uses.
func (w *Workspace) solveEnsembleSpace(c Config, bg, uc, out []float64) error {
	n, m := c.N, len(w.sel)
	denom := float64(n - 1)
	// A = V·Vᵀ/(N−1) + R (lower triangle) and s = V·u_c/(N−1).
	a := w.a.Reset(m, m)
	w.rhs = grow(w.rhs, m)
	z := w.rhs
	for i, si := range w.sel {
		arow := a.Row(i)
		for j, sj := range w.sel[:i+1] {
			arow[j] = w.vv(si.slot, sj.slot, n) * (1 / denom)
		}
		arow[i] += si.effVar
		z[i] = linalg.Dot(uc, w.vrow(si.slot, n)) / denom
	}
	if err := linalg.CholeskyInPlace(a); err != nil {
		return fmt.Errorf("enkf: innovation covariance not SPD: %w", err)
	}
	if err := linalg.CholSolveVecInPlace(a, z); err != nil {
		return err
	}
	copy(out, bg)
	for i, si := range w.sel {
		zi := z[i]
		for k, dv := range w.drow(si.slot, n) {
			out[k] += zi * dv
		}
	}
	return nil
}

// solveModifiedCholesky computes Eq. (5) on the local box lb, the centre row
// of δX = M⁻¹·HᵀR⁻¹·D with M = B̂⁻¹ + HᵀR⁻¹H, as (HᵀR⁻¹·z)ᵀ·D where
// M·z = e_centre: M is symmetric, so z is that row of M⁻¹.
func (w *Workspace) solveModifiedCholesky(c Config, lb grid.Box, bg []float64, centre int, out []float64) error {
	n, nb, width := c.N, lb.Points(), lb.Width()
	u := w.ul.Reset(nb, n)
	for y := lb.Y0; y < lb.Y1; y++ {
		p := (y-w.region.Y0)*w.region.Width() + lb.X0 - w.region.X0
		copy(u.Data[(y-lb.Y0)*width*n:], w.u[p*n:(p+width)*n])
	}
	band := c.Band
	if band == 0 {
		// Default to coupling within one local-box row.
		band = 2*c.Radius.Xi + 1
	}
	if band >= nb {
		band = nb - 1
	}
	ridge := c.Ridge
	if ridge == 0 {
		ridge = 1e-6
	}
	m2 := &w.a
	if err := linalg.ModifiedCholeskyPrecisionInto(m2, u, band, ridge, &w.mc); err != nil {
		return fmt.Errorf("enkf: modified Cholesky estimate: %w", err)
	}
	// Each observation contributes its weight outer product w·wᵀ/R over its
	// support rows.
	local := func(s obs.Support) int { return (s.Y-lb.Y0)*width + s.X - lb.X0 }
	for _, si := range w.sel {
		o := &w.obs[si.slot]
		inv := 1 / si.effVar
		for _, a := range o.sup[:o.nsup] {
			for _, b := range o.sup[:o.nsup] {
				m2.Data[local(a)*nb+local(b)] += a.W * b.W * inv
			}
		}
	}
	if err := linalg.CholeskyInPlace(m2); err != nil {
		return fmt.Errorf("enkf: analysis matrix not SPD: %w", err)
	}
	w.rhs = grow(w.rhs, nb)
	z := w.rhs
	clear(z)
	z[centre] = 1
	if err := linalg.CholSolveVecInPlace(m2, z); err != nil {
		return err
	}
	copy(out, bg)
	for _, si := range w.sel {
		o := &w.obs[si.slot]
		var g float64
		for _, a := range o.sup[:o.nsup] {
			g += z[local(a)] * a.W
		}
		g /= si.effVar
		for k, dv := range w.drow(si.slot, n) {
			out[k] += g * dv
		}
	}
	return nil
}

// What follows runs once per box, not per point — or, for vv, once per pair of
// observations. It sits below the solvers it feeds because functions are laid
// out in source order: text added above them moves their loops across 64-byte
// lines, and the dense benchmark pays some 6–10% for that (EXPERIMENTS.md,
// "Record: PR 21" and "PR 22"; scripts/text-parity.sh prints where they are).

// vv returns v_i·v_j for two observation slots of one selection, computed the
// first time a point of the box asks. The product does not depend on the
// order of its factors, so it is the same bits whoever asks first.
func (w *Workspace) vv(i, j, n int) float64 {
	if i < j {
		i, j = j, i
	}
	p := &w.pair[i*w.band+i-j]
	if *p != *p {
		*p = linalg.Dot(w.vrow(i, n), w.vrow(j, n))
	}
	return *p
}

// reach returns the points of target whose local box holds the observation's
// whole support — the only points whose analysis it enters (Eq. 6). A point's
// box holds a support point exactly when that point's box holds the point, so
// the reach is an intersection of boxes; they are taken unclamped, which adds
// nothing inside the mesh. The result may be empty.
func (o *boxObs) reach(r grid.Radius, target grid.Box) grid.Box {
	b := target
	for _, s := range o.sup[:o.nsup] {
		b = b.Intersect(grid.Box{X0: s.X - r.Xi, X1: s.X + r.Xi + 1, Y0: s.Y - r.Eta, Y1: s.Y + r.Eta + 1})
	}
	return b
}

// hull returns the smallest box holding a, which may be empty, and b, which
// is not.
func hull(a, b grid.Box) grid.Box {
	if a.Empty() {
		return b
	}
	return grid.Box{X0: min(a.X0, b.X0), X1: max(a.X1, b.X1), Y0: min(a.Y0, b.Y0), Y1: max(a.Y1, b.Y1)}
}

// begin scopes the workspace to the analysis of target from blk: it keeps
// the candidates that reach a point of target, marks the points they reach
// and, if there are any, computes X, U and the per-observation rows over what
// the reached points' local boxes span. Nothing here depends on which point
// of target is analysed.
func (w *Workspace) begin(c Config, blk *Block, candidates []obs.Observation, target grid.Box, draws *obs.Perturbations) {
	n := c.N
	w.obs = w.obs[:0]
	expansion := target.Expand(c.Mesh, c.Radius.Xi, c.Radius.Eta)
	region := expansion.Intersect(blk.Box)
	// A block that cannot serve every point fails at the first point it fails
	// in target order, after whatever the points before it report: then every
	// point is analysed on its own.
	whole := blk.Members() != n || region != expansion
	w.reach = grow(w.reach, target.Points())
	for i := range w.reach {
		w.reach[i] = whole
	}
	if blk.Members() != n {
		return // every point reports it
	}
	var span grid.Box // of the reached points
	if whole {
		span = target
	}
	for i, o := range candidates {
		bo := boxObs{order: i, px: float64(o.X) + o.OffsetX, py: float64(o.Y) + o.OffsetY, vari: o.Variance, value: o.Value}
		bo.sup, bo.nsup = o.SupportPoints()
		// An observation of nothing (no positive weight) constrains nothing.
		if bo.nsup == 0 || !bo.within(region) {
			continue
		}
		r := bo.reach(c.Radius, target)
		if r.Empty() {
			continue
		}
		w.obs = append(w.obs, bo)
		if whole {
			continue
		}
		span = hull(span, r)
		for y := r.Y0; y < r.Y1; y++ {
			row := w.reach[(y-target.Y0)*target.Width()+r.X0-target.X0:][:r.Width()]
			for x := range row {
				row[x] = true
			}
		}
	}
	if len(w.obs) == 0 {
		return // every analysis is the inflated background
	}
	region = span.Expand(c.Mesh, c.Radius.Xi, c.Radius.Eta).Intersect(blk.Box)
	// A point visits the observations of its local box's rows only; the
	// stable sort keeps candidate order within a row.
	slices.SortStableFunc(w.obs, func(p, q boxObs) int { return p.sup[0].Y - q.sup[0].Y })
	w.rowEnd = grow(w.rowEnd, region.Height())
	clear(w.rowEnd)
	for i := range w.obs {
		w.rowEnd[w.obs[i].sup[0].Y-region.Y0] = i + 1
	}
	for r := 1; r < len(w.rowEnd); r++ {
		w.rowEnd[r] = max(w.rowEnd[r], w.rowEnd[r-1])
	}
	// A local box spans at most 2η+1 rows: what they hold bounds a selection,
	// and how many slots apart two observations of one selection lie.
	w.band = 0
	for r, end := range w.rowEnd {
		first := 0
		if r > 2*c.Radius.Eta {
			first = w.rowEnd[r-2*c.Radius.Eta-1]
		}
		w.band = max(w.band, end-first)
	}
	w.sel = grow(w.sel, w.band)
	if c.Solver == SolverEnsembleSpace {
		w.pair = grow(w.pair, len(w.obs)*w.band)
		for i := range w.pair {
			w.pair[i] = math.NaN()
		}
	}

	w.region = region
	w.loadEnsemble(c, blk)
	w.loadObservations(c, candidates, draws)
}

// background writes the inflated background of row y's points [x0, x1) from
// blk into dst, member-major: what point yields where no observation
// reaches, by the operations of Config.inflate in their order, so the bits
// are the same.
func (w *Workspace) background(c Config, dst, blk *Block, x0, x1, y int) {
	run := x1 - x0
	src := (y-blk.Box.Y0)*blk.Box.Width() + x0 - blk.Box.X0
	off := (y-dst.Box.Y0)*dst.Box.Width() + x0 - dst.Box.X0
	if c.Inflation <= 0 || c.Inflation == 1 {
		for k, member := range blk.Data {
			copy(dst.Data[k][off:off+run], member[src:])
		}
		return
	}
	w.mean = grow(w.mean, run)
	mean := w.mean
	clear(mean)
	for _, member := range blk.Data {
		for i, v := range member[src:][:run] {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(blk.Data))
	}
	for k, member := range blk.Data {
		out := dst.Data[k][off:][:run]
		for i, v := range member[src:][:run] {
			out[i] = mean[i] + c.Inflation*(v-mean[i])
		}
	}
}

// AnalyzeInto runs the local analysis over every point of target, using
// ensemble data in blk (which must contain the expansion of target) and the
// given observation candidates (at least every observation whose support
// lies in that expansion), and writes the analysis ensemble into dst, whose
// box must contain target. Its cost follows the observations: only the
// points one reaches are solved, the rest of each row is written through.
//
// draws, when not nil, is the run's table of perturbed rows over exactly the
// candidates slice, c.N and c.Seed, shared with every other box the run
// analyses: a row some box has drawn is copied. With nil, the box draws its
// own rows through the same function, so the bits are the same either way.
func (w *Workspace) AnalyzeInto(c Config, dst, blk *Block, candidates []obs.Observation, target grid.Box, draws *obs.Perturbations) error {
	if target.Intersect(dst.Box) != target || dst.Members() != c.N {
		return fmt.Errorf("enkf: destination block %v with %d members cannot hold the %d-member analysis of %v", dst.Box, dst.Members(), c.N, target)
	}
	if draws != nil && !draws.For(candidates, c.N, c.Seed) {
		return fmt.Errorf("enkf: perturbation table drawn for other observations, members or seed than the %d candidates, %d members and seed %d", len(candidates), c.N, c.Seed)
	}
	w.begin(c, blk, candidates, target, draws)
	w.xa = grow(w.xa, c.N)
	for y := target.Y0; y < target.Y1; y++ {
		reach := w.reach[(y-target.Y0)*target.Width():][:target.Width()]
		for i := 0; i < len(reach); {
			x := target.X0 + i
			if !reach[i] {
				j := i + 1
				for j < len(reach) && !reach[j] {
					j++
				}
				w.background(c, dst, blk, x, target.X0+j, y)
				i = j
				continue
			}
			if err := w.point(c, blk, x, y, w.xa); err != nil {
				return fmt.Errorf("enkf: point (%d,%d): %w", x, y, err)
			}
			off := (y-dst.Box.Y0)*dst.Box.Width() + x - dst.Box.X0
			for k, v := range w.xa {
				dst.Data[k][off] = v
			}
			i++
		}
	}
	return nil
}

// MaxAbsDiffFields returns the largest |a−b| across two ensembles of
// fields; used by integration tests comparing implementations.
//
// It sits behind the solvers for the reason given above vv: ahead of them its
// seven 32-byte slots put point and solveEnsembleSpace on the slow parity
// (EXPERIMENTS.md, "Record: PR 23" and "PR 24").
func MaxAbsDiffFields(a, b [][]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return math.Inf(1)
		}
		for i := range a[k] {
			d := math.Abs(a[k][i] - b[k][i])
			if d > m {
				m = d
			}
		}
	}
	return m
}
