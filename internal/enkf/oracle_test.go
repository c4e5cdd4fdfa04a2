package enkf

import (
	"fmt"
	"math"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
)

// The oracle is the straightforward per-point local analysis the box-scoped
// Workspace replaced, kept verbatim as a test-only reference: every point
// rebuilds its local ensemble matrix, re-centres it, rescans all candidates
// and redraws their perturbations. The property tests require the workspace
// to reproduce it bit for bit.

// oracleIdx is one support point of an observation expressed in local-box
// row indices.
type oracleIdx struct {
	idx int
	w   float64
}

// oracleProblem gathers the pieces of Eq. (6) for one analysis point: the
// local ensemble matrix Xl (points × N), the in-box observations (each as a
// weighted combination of local rows — selection or bilinear H), their
// effective variances, and the perturbed innovations D = Yˢ − H·Xb.
type oracleProblem struct {
	lb       grid.Box
	center   int // row index of the analysis point within the local box
	xl       *linalg.Matrix
	supports [][]oracleIdx // per observation: local rows and H weights
	effVar   []float64     // effective R diagonal after tapering
	values   []float64     // raw observed values y (used by the ETKF)
	innov    *linalg.Matrix
	members  int
}

// hRow evaluates (H·Xl)_{obs i, member k} from the support weights.
func (p *oracleProblem) hRow(i, k int) float64 {
	var v float64
	for _, s := range p.supports[i] {
		v += s.w * p.xl.At(s.idx, k)
	}
	return v
}

// oracleBuild assembles the local problem for grid point (x, y) using the
// ensemble data in blk and the observations candidates (already restricted
// to some superset box, e.g. the expansion).
func (c Config) oracleBuild(blk *Block, candidates []obs.Observation, x, y int) (*oracleProblem, error) {
	lb := c.Radius.LocalBox(c.Mesh, x, y)
	if lb.Intersect(blk.Box) != lb {
		return nil, fmt.Errorf("enkf: local box %v of point (%d,%d) not contained in block %v", lb, x, y, blk.Box)
	}
	n := blk.Members()
	if n != c.N {
		return nil, fmt.Errorf("enkf: block has %d members, config says %d", n, c.N)
	}
	nb := lb.Points()
	xl := linalg.NewMatrix(nb, n)
	for yy := lb.Y0; yy < lb.Y1; yy++ {
		for xx := lb.X0; xx < lb.X1; xx++ {
			r := (yy-lb.Y0)*lb.Width() + (xx - lb.X0)
			row := xl.Row(r)
			for k := 0; k < n; k++ {
				row[k] = blk.At(k, xx, yy)
			}
		}
	}
	if c.Inflation > 0 && c.Inflation != 1 {
		// Multiplicative inflation: x ← mean + λ(x − mean), row by row.
		for r := 0; r < nb; r++ {
			row := xl.Row(r)
			var mean float64
			for _, v := range row {
				mean += v
			}
			mean /= float64(n)
			for k := range row {
				row[k] = mean + c.Inflation*(row[k]-mean)
			}
		}
	}
	p := &oracleProblem{
		lb:      lb,
		center:  (y-lb.Y0)*lb.Width() + (x - lb.X0),
		xl:      xl,
		members: n,
	}
	var used []obs.Observation
	for _, o := range candidates {
		if !obs.ObsInBox(o, lb) {
			continue
		}
		w := c.taper(x, y, float64(o.X)+o.OffsetX, float64(o.Y)+o.OffsetY)
		if w < 1e-10 {
			continue
		}
		var sup []oracleIdx
		for _, s := range o.Support() {
			sup = append(sup, oracleIdx{idx: (s.Y-lb.Y0)*lb.Width() + (s.X - lb.X0), w: s.W})
		}
		p.supports = append(p.supports, sup)
		p.effVar = append(p.effVar, o.Variance/w)
		p.values = append(p.values, o.Value)
		used = append(used, o)
	}
	m := len(p.supports)
	p.innov = linalg.NewMatrix(m, n)
	if c.Solver != SolverETKF {
		// The deterministic transform uses no observation perturbations;
		// the other solvers need the full Yˢ − H·Xᵇ innovation matrix.
		for mi, o := range used {
			row := p.innov.Row(mi)
			ys := obs.CenteredPerturbations(o, n, c.Seed)
			for k := 0; k < n; k++ {
				row[k] = ys[k] - p.hRow(mi, k)
			}
		}
	}
	return p, nil
}

// oraclePoint computes the analysis ensemble (length N) at grid point
// (x, y). blk must contain the local box of (x, y); candidates must contain
// at least every observation inside that local box.
func (c Config) oraclePoint(blk *Block, candidates []obs.Observation, x, y int) ([]float64, error) {
	p, err := c.oracleBuild(blk, candidates, x, y)
	if err != nil {
		return nil, err
	}
	bg := make([]float64, p.members)
	copy(bg, p.xl.Row(p.center))
	if len(p.supports) == 0 {
		// No observations in reach: the analysis equals the background.
		return bg, nil
	}
	switch c.Solver {
	case SolverEnsembleSpace:
		return c.oracleEnsembleSpace(p, bg)
	case SolverModifiedCholesky:
		return c.oracleModifiedCholesky(p, bg)
	case SolverETKF:
		return c.oracleETKF(p, bg)
	default:
		return nil, fmt.Errorf("enkf: unknown solver %d", c.Solver)
	}
}

// oracleEnsembleSpace computes δxa at the centre point via
// δXa = U·Vᵀ·(V·Vᵀ/(N−1) + R)⁻¹·D/(N−1).
func (c Config) oracleEnsembleSpace(p *oracleProblem, bg []float64) ([]float64, error) {
	n := p.members
	denom := float64(n - 1)
	// U = Xl − mean; we only need the centre row of U and V = H·U.
	u := p.xl.Clone()
	linalg.CenterRows(u)
	m := len(p.supports)
	v := linalg.NewMatrix(m, n)
	for i, sup := range p.supports {
		row := v.Row(i)
		for _, s := range sup {
			urow := u.Row(s.idx)
			for k := 0; k < n; k++ {
				row[k] += s.w * urow[k]
			}
		}
	}
	// A = V·Vᵀ/(N−1) + R
	a := linalg.AAT(v).Scale(1 / denom)
	if err := a.AddDiagonal(p.effVar); err != nil {
		return nil, err
	}
	l, err := linalg.Cholesky(a)
	if err != nil {
		return nil, fmt.Errorf("enkf: innovation covariance not SPD: %w", err)
	}
	// W = A⁻¹·D (m × N)
	w, err := linalg.CholSolveMatrix(l, p.innov)
	if err != nil {
		return nil, err
	}
	// δxa_centre = u_centre · (Vᵀ·W) / (N−1). Compute t = Vᵀ·W once
	// restricted to what we need: g[k2] = Σ_k u_c[k]·(VᵀW)[k][k2]
	//  = Σ_i (Σ_k u_c[k]·V[i][k]) · W[i][k2].
	uc := u.Row(p.center)
	out := make([]float64, n)
	copy(out, bg)
	for i := 0; i < m; i++ {
		s := linalg.Dot(uc, v.Row(i)) / denom
		wrow := w.Row(i)
		for k2 := 0; k2 < n; k2++ {
			out[k2] += s * wrow[k2]
		}
	}
	return out, nil
}

// oracleModifiedCholesky computes Eq. (5) on the local box:
// δX = (B̂⁻¹ + HᵀR⁻¹H)⁻¹ · HᵀR⁻¹ · D, taking the centre row.
func (c Config) oracleModifiedCholesky(p *oracleProblem, bg []float64) ([]float64, error) {
	n := p.members
	nb := p.xl.Rows
	u := p.xl.Clone()
	linalg.CenterRows(u)
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
	m2, err := linalg.ModifiedCholeskyPrecision(u, band, ridge)
	if err != nil {
		return nil, fmt.Errorf("enkf: modified Cholesky estimate: %w", err)
	}
	// M = B̂⁻¹ + HᵀR⁻¹H: each observation contributes its weight outer
	// product w·wᵀ/R over its support rows.
	for i, sup := range p.supports {
		inv := 1 / p.effVar[i]
		for _, a := range sup {
			for _, b := range sup {
				m2.Data[a.idx*nb+b.idx] += a.w * b.w * inv
			}
		}
	}
	// C = HᵀR⁻¹·D (nb × N).
	cm := linalg.NewMatrix(nb, n)
	for i, sup := range p.supports {
		drow := p.innov.Row(i)
		inv := 1 / p.effVar[i]
		for _, a := range sup {
			crow := cm.Row(a.idx)
			for k := 0; k < n; k++ {
				crow[k] += a.w * inv * drow[k]
			}
		}
	}
	l, err := linalg.Cholesky(m2)
	if err != nil {
		return nil, fmt.Errorf("enkf: analysis matrix not SPD: %w", err)
	}
	dx, err := linalg.CholSolveMatrix(l, cm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	centre := dx.Row(p.center)
	for k := 0; k < n; k++ {
		out[k] = bg[k] + centre[k]
	}
	return out, nil
}

// oracleETKF computes the deterministic ensemble transform analysis at the
// centre point — the LETKF family of the paper's ref [25] (Ott et al.), a
// widely used alternative to the perturbed-observation update:
//
//	Ã   = (N−1)·I + Vᵀ·R⁻¹·V            (ensemble-space analysis precision)
//	w̄   = Ã⁻¹·Vᵀ·R⁻¹·(y − H·x̄ᵇ)          (mean weight vector)
//	W   = ((N−1)·Ã⁻¹)^{1/2}              (symmetric square root transform)
//	xᵃ_k = x̄ᵇ + u·w̄ + u·W_{·,k}
//
// with V = H·U the observation-space deviations. No observation
// perturbations are used, so the analysis is deterministic given the
// background and the observations; the symmetric square root preserves the
// zero-sum of deviations (1 is an eigenvector of Ã because V·1 = 0).
func (c Config) oracleETKF(p *oracleProblem, bg []float64) ([]float64, error) {
	n := p.members
	denom := float64(n - 1)
	u := p.xl.Clone()
	linalg.CenterRows(u)
	m := len(p.supports)

	// V = H·U and the mean innovation d = y − H·x̄ᵇ, computed from the raw
	// observed values: the ETKF uses no observation perturbations.
	v := linalg.NewMatrix(m, n)
	d := make([]float64, m)
	for i, sup := range p.supports {
		row := v.Row(i)
		for _, s := range sup {
			urow := u.Row(s.idx)
			for k := 0; k < n; k++ {
				row[k] += s.w * urow[k]
			}
		}
		var hxbMean float64
		for k := 0; k < n; k++ {
			hxbMean += p.hRow(i, k)
		}
		d[i] = p.values[i] - hxbMean/float64(n)
	}

	// Ã = (N−1)I + Vᵀ R⁻¹ V.
	at := linalg.NewMatrix(n, n)
	for k := 0; k < n; k++ {
		at.Set(k, k, denom)
	}
	for i := 0; i < m; i++ {
		inv := 1 / p.effVar[i]
		row := v.Row(i)
		for a := 0; a < n; a++ {
			va := inv * row[a]
			if va == 0 {
				continue
			}
			arow := at.Row(a)
			for b := a; b < n; b++ {
				arow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < a; b++ {
			at.Set(a, b, at.At(b, a))
		}
	}

	// rhs = Vᵀ R⁻¹ d; w̄ = Ã⁻¹ rhs (Cholesky — Ã is SPD by construction).
	rhs := make([]float64, n)
	for i := 0; i < m; i++ {
		s := d[i] / p.effVar[i]
		row := v.Row(i)
		for k := 0; k < n; k++ {
			rhs[k] += s * row[k]
		}
	}
	wbar, err := linalg.Solve(at, rhs)
	if err != nil {
		return nil, fmt.Errorf("enkf: ETKF ensemble-space system: %w", err)
	}

	// W = ((N−1)·Ã⁻¹)^{1/2} via the eigendecomposition of Ã.
	w, err := linalg.SymmetricFunc(at, func(lambda float64) (float64, error) {
		if lambda <= 0 {
			return 0, fmt.Errorf("non-positive eigenvalue %g", lambda)
		}
		return math.Sqrt(denom / lambda), nil
	})
	if err != nil {
		return nil, fmt.Errorf("enkf: ETKF transform: %w", err)
	}

	// xᵃ_k = x̄ᵇ + u_c·w̄ + u_c·W_{·,k} at the centre point.
	uc := u.Row(p.center)
	var xbar float64
	for k := 0; k < n; k++ {
		xbar += p.xl.At(p.center, k)
	}
	xbar /= float64(n)
	meanInc := linalg.Dot(uc, wbar)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var dev float64
		for j := 0; j < n; j++ {
			dev += uc[j] * w.At(j, k)
		}
		out[k] = xbar + meanInc + dev
	}
	return out, nil
}

// oracleBox runs oraclePoint over every point of target, exactly as
// AnalyzeBox did before the workspace.
func (c Config) oracleBox(blk *Block, candidates []obs.Observation, target grid.Box) (*Block, error) {
	out := NewBlock(target, c.N)
	for y := target.Y0; y < target.Y1; y++ {
		for x := target.X0; x < target.X1; x++ {
			xa, err := c.oraclePoint(blk, candidates, x, y)
			if err != nil {
				return nil, fmt.Errorf("enkf: point (%d,%d): %w", x, y, err)
			}
			for k := 0; k < c.N; k++ {
				out.Set(k, x, y, xa[k])
			}
		}
	}
	return out, nil
}
