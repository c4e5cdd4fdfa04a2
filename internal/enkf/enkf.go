// Package enkf implements the ensemble Kalman filter mathematics of the
// paper's §2: the global perturbed-observation analysis (Eqs. 1–5), the
// domain-localized per-point analysis (Eq. 6 applied with a local influence
// box per grid point), and a serial reference implementation that every
// parallel path (L-EnKF, P-EnKF, S-EnKF) must reproduce exactly.
//
// Two local solvers are provided, mirroring the paper's discussion in §2.3:
//
//   - SolverEnsembleSpace: the deterministic ensemble-space formulation,
//     Xa = Xb + U·Vᵀ·(V·Vᵀ/(N−1) + R)⁻¹·(Yˢ − H·Xb)/(N−1) with V = H·U —
//     the formulation used by L-EnKF implementations.
//   - SolverModifiedCholesky: the P-EnKF estimator (refs [23, 24]): solve
//     (B̂⁻¹ + HᵀR⁻¹H)·δX = HᵀR⁻¹(Yˢ − H·Xb) with B̂⁻¹ obtained from the
//     modified Cholesky decomposition (Eq. 5).
//
// Both solvers operate point-by-point on a local box, so the analysis on a
// sub-domain D only needs data on its expansion D̄ — the property the whole
// parallel design rests on. Every entry point runs through one Workspace,
// which computes what the points of a box share once per box.
package enkf

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
	"senkf/internal/par"
)

// Solver selects the local analysis formulation.
type Solver int

const (
	// SolverEnsembleSpace solves in the N-dimensional ensemble space.
	SolverEnsembleSpace Solver = iota
	// SolverModifiedCholesky solves Eq. (5) with the modified Cholesky
	// B̂⁻¹ estimate over the local box.
	SolverModifiedCholesky
	// SolverETKF is the deterministic ensemble transform (LETKF family,
	// ref [25]): no observation perturbations; the analysis ensemble is
	// the background transformed by the symmetric square root in ensemble
	// space.
	SolverETKF
)

func (s Solver) String() string {
	switch s {
	case SolverEnsembleSpace:
		return "ensemble-space"
	case SolverModifiedCholesky:
		return "modified-cholesky"
	case SolverETKF:
		return "etkf"
	default:
		return fmt.Sprintf("solver(%d)", int(s))
	}
}

// Config carries the assimilation parameters shared by every implementation.
type Config struct {
	Mesh   grid.Mesh
	Radius grid.Radius
	N      int    // ensemble size (number of background members)
	Seed   uint64 // seed of the perturbed-observation streams
	Solver Solver
	// Band is the regression bandwidth of the modified Cholesky estimator
	// (ignored by the ensemble-space solver). Zero means diagonal B̂⁻¹.
	Band int
	// Ridge regularizes the modified Cholesky regressions.
	Ridge float64
	// TaperLength, when positive, applies Gaspari–Cohn observation-space
	// localization inside the local box: R_ii is inflated by 1/ρ_i with
	// ρ_i the taper at the normalized obs–point distance. Zero keeps the
	// paper's pure cut-off local box.
	TaperLength float64
	// Inflation, when positive, multiplies the background deviations from
	// the ensemble mean by this factor before the analysis (multiplicative
	// covariance inflation, the standard remedy for the spread collapse of
	// small ensembles in cycled assimilation). Zero disables inflation
	// (factor 1). Applied per local box, so every parallel layout computes
	// the identical analysis.
	Inflation float64
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Mesh.NX <= 0 || c.Mesh.NY <= 0 {
		return fmt.Errorf("enkf: invalid mesh %dx%d", c.Mesh.NX, c.Mesh.NY)
	}
	if c.N < 2 {
		return fmt.Errorf("enkf: ensemble size must be at least 2, got %d", c.N)
	}
	if c.Radius.Xi < 0 || c.Radius.Eta < 0 {
		return fmt.Errorf("enkf: invalid radius %+v", c.Radius)
	}
	switch c.Solver {
	case SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF:
	default:
		return fmt.Errorf("enkf: unknown solver %d", c.Solver)
	}
	if c.Band < 0 {
		return fmt.Errorf("enkf: negative band %d", c.Band)
	}
	if c.Ridge < 0 {
		return fmt.Errorf("enkf: negative ridge %g", c.Ridge)
	}
	if c.TaperLength < 0 {
		return fmt.Errorf("enkf: negative taper length %g", c.TaperLength)
	}
	if c.Inflation < 0 {
		return fmt.Errorf("enkf: negative inflation %g", c.Inflation)
	}
	return nil
}

// Block is ensemble data over a box: Data[k] holds member k's values
// row-major within Box. It is the in-memory form of the
// X̄ᵇ_{[i,j]} expansions that file reading and communication deliver.
type Block struct {
	Box  grid.Box
	Data [][]float64 // N × Box.Points()
}

// NewBlock allocates a zeroed block for n members over box b.
func NewBlock(b grid.Box, n int) *Block {
	d := make([][]float64, n)
	for k := range d {
		d[k] = make([]float64, b.Points())
	}
	return &Block{Box: b, Data: d}
}

// At returns member k's value at global grid point (x, y), which must lie
// inside the block's box.
func (b *Block) At(k, x, y int) float64 {
	return b.Data[k][(y-b.Box.Y0)*b.Box.Width()+(x-b.Box.X0)]
}

// Set assigns member k's value at global grid point (x, y).
func (b *Block) Set(k, x, y int, v float64) {
	b.Data[k][(y-b.Box.Y0)*b.Box.Width()+(x-b.Box.X0)] = v
}

// Members returns the ensemble size stored in the block.
func (b *Block) Members() int { return len(b.Data) }

// SubBlock extracts the portion of the block covering box sb (which must be
// contained in b.Box) into a fresh block.
func (b *Block) SubBlock(sb grid.Box) (*Block, error) {
	if sb.Intersect(b.Box) != sb {
		return nil, fmt.Errorf("enkf: sub-box %v not contained in block box %v", sb, b.Box)
	}
	out := NewBlock(sb, len(b.Data))
	for k := range b.Data {
		for y := sb.Y0; y < sb.Y1; y++ {
			srcOff := (y-b.Box.Y0)*b.Box.Width() + (sb.X0 - b.Box.X0)
			dstOff := (y - sb.Y0) * sb.Width()
			copy(out.Data[k][dstOff:dstOff+sb.Width()], b.Data[k][srcOff:srcOff+sb.Width()])
		}
	}
	return out, nil
}

// taper returns the Gaspari–Cohn weight of an observation centred at
// (ox, oy) for the analysis point (x, y), normalized so the weight reaches
// zero at the local box edge. With TaperLength == 0 every in-box
// observation has weight 1 (pure cut-off localization).
func (c Config) taper(x, y int, ox, oy float64) float64 {
	if c.TaperLength <= 0 {
		return 1
	}
	dx := (ox - float64(x)) / (float64(c.Radius.Xi) + 1)
	dy := (oy - float64(y)) / (float64(c.Radius.Eta) + 1)
	z := 2 * math.Sqrt(dx*dx+dy*dy) / c.TaperLength
	return linalg.GaspariCohn(z)
}

// AnalyzePoint computes the analysis ensemble (length N) at grid point
// (x, y). blk must contain the local box of (x, y); candidates must contain
// at least every observation inside that local box. It is the analysis of a
// one-point box: a loop over points should call AnalyzeBox, or reuse one
// Workspace, so the work the points share is done once. One box shares its
// perturbed rows with no other, so they are drawn in place (a nil table).
func (c Config) AnalyzePoint(blk *Block, candidates []obs.Observation, x, y int) ([]float64, error) {
	var w Workspace
	w.begin(c, blk, candidates, grid.Box{X0: x, X1: x + 1, Y0: y, Y1: y + 1}, nil)
	out := make([]float64, c.N)
	if err := w.point(c, blk, x, y, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyzeBox runs the per-point analysis over every point of target, using
// ensemble data in blk (which must contain the expansion of target) and the
// given observation candidates. The result is a block over target. It
// analyses one box, which shares its perturbed rows with no other, so they
// are drawn in place (a nil table).
func (c Config) AnalyzeBox(blk *Block, candidates []obs.Observation, target grid.Box) (*Block, error) {
	out := NewBlock(target, c.N)
	if err := new(Workspace).AnalyzeInto(c, out, blk, candidates, target, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// InputError is a reference analysis refusing input whose shape is not its
// configuration's: a background of another member count or field length, or
// no observation network.
type InputError struct{ msg string }

func (e *InputError) Error() string { return e.msg }

// checkInputs validates the configuration, that net exists and that
// background holds N full fields over the mesh.
func (c Config) checkInputs(background [][]float64, net *obs.Network) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if net == nil {
		return &InputError{"enkf: no observation network"}
	}
	if len(background) != c.N {
		return &InputError{fmt.Sprintf("enkf: %d background members, config says %d", len(background), c.N)}
	}
	for k, f := range background {
		if len(f) != c.Mesh.Points() {
			return &InputError{fmt.Sprintf("enkf: member %d has %d points, mesh has %d", k, len(f), c.Mesh.Points())}
		}
	}
	return nil
}

// SerialReference computes the full-grid analysis point by point: the
// ground truth every parallel implementation is checked against.
// background holds N row-major full fields. A point's analysis depends on its
// local box alone, so the mesh is analysed as 2×GOMAXPROCS full-width bands of
// equal height in parallel, each through its own pooled Workspace into one
// result, with one perturbation table the bands share: the bits, and the
// error of the first failing point in row-major order, are those of one box.
func SerialReference(c Config, background [][]float64, net *obs.Network) ([][]float64, error) {
	if err := c.checkInputs(background, net); err != nil {
		return nil, err
	}
	full := grid.Box{X0: 0, X1: c.Mesh.NX, Y0: 0, Y1: c.Mesh.NY}
	blk, out := &Block{Box: full, Data: background}, NewBlock(full, c.N)
	draws := obs.NewPerturbations(net.Obs, c.N, c.Seed)
	workers := runtime.GOMAXPROCS(0)
	bands := min(2*workers, c.Mesh.NY)
	err := par.Do(bands, workers, func(_, i int) error {
		ws := workspaces.Get().(*Workspace)
		defer workspaces.Put(ws)
		return ws.AnalyzeInto(c, out, blk, net.Obs, referenceBand(c.Mesh, i, bands), draws)
	})
	// Released by a call, not a defer: a deferred Release links its own
	// symbol ahead of obs's draw code and moves that across 64-byte lines.
	draws.Release()
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}

// referenceBand is band i of SerialReference's n: full-width rows, top to
// bottom, the heights of the n differing by at most one row. SerialReference
// cuts 2×GOMAXPROCS bands (one per row on a mesh with fewer rows): twice the
// workers, so a band whose observations make it dear does not leave a core
// idle.
func referenceBand(m grid.Mesh, i, n int) grid.Box {
	return grid.Box{X0: 0, X1: m.NX, Y0: m.NY * i / n, Y1: m.NY * (i + 1) / n}
}

// workspaces holds SerialReference's workspaces between calls: a cycled
// serial analyzer analyses the same bands every cycle, so it does not regrow
// their scratch. A workspace keeps no reference to the blocks it analysed.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// GlobalAnalysis computes the unlocalized perturbed-observation analysis
// (Eq. 3) directly: Xa = Xb + U·Vᵀ·(V·Vᵀ/(N−1) + R)⁻¹·(Yˢ − H·Xb)/(N−1)
// over the whole mesh at once. Exponential in neither n nor m but dense, so
// only suitable for small meshes; used to validate the localized path.
func GlobalAnalysis(c Config, background [][]float64, net *obs.Network) ([][]float64, error) {
	if err := c.checkInputs(background, net); err != nil {
		return nil, err
	}
	n := c.Mesh.Points()
	nEns := c.N
	xb := linalg.NewMatrix(n, nEns)
	for k, f := range background {
		for i := 0; i < n; i++ {
			xb.Set(i, k, f[i])
		}
	}
	u := xb.Clone()
	linalg.CenterRows(u)
	m := net.Len()
	v := linalg.NewMatrix(m, nEns)
	innov := linalg.NewMatrix(m, nEns)
	effVar := make([]float64, m)
	for i, o := range net.Obs {
		vrow := v.Row(i)
		effVar[i] = o.Variance
		row := innov.Row(i)
		ys := obs.CenteredPerturbations(o, nEns, c.Seed)
		copy(row, ys)
		for _, s := range o.Support() {
			idx := c.Mesh.Index(s.X, s.Y)
			for k := 0; k < nEns; k++ {
				vrow[k] += s.W * u.At(idx, k)
				row[k] -= s.W * xb.At(idx, k)
			}
		}
	}
	denom := float64(nEns - 1)
	a := linalg.AAT(v).Scale(1 / denom)
	if err := a.AddDiagonal(effVar); err != nil {
		return nil, err
	}
	l, err := linalg.Cholesky(a)
	if err != nil {
		return nil, err
	}
	w, err := linalg.CholSolveMatrix(l, innov)
	if err != nil {
		return nil, err
	}
	// δXa = U·(Vᵀ·W)/(N−1)
	vtw, err := linalg.MatMul(v.T(), w)
	if err != nil {
		return nil, err
	}
	dxa, err := linalg.MatMul(u, vtw)
	if err != nil {
		return nil, err
	}
	dxa.Scale(1 / denom)
	out := make([][]float64, nEns)
	for k := 0; k < nEns; k++ {
		out[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			out[k][i] = xb.At(i, k) + dxa.At(i, k)
		}
	}
	return out, nil
}

// Assemble merges analysis blocks over disjoint boxes into n full
// row-major fields over the mesh. Every mesh point must be covered exactly
// once.
func Assemble(m grid.Mesh, n int, blocks []*Block) ([][]float64, error) {
	out := make([][]float64, n)
	for k := range out {
		out[k] = make([]float64, m.Points())
	}
	covered := make([]bool, m.Points())
	for _, b := range blocks {
		if b.Members() != n {
			return nil, fmt.Errorf("enkf: block over %v has %d members, want %d", b.Box, b.Members(), n)
		}
		if b.Box.Clamp(m) != b.Box {
			return nil, fmt.Errorf("enkf: block over %v outside the %dx%d mesh", b.Box, m.NX, m.NY)
		}
		w := b.Box.Width()
		for y := b.Box.Y0; y < b.Box.Y1; y++ {
			row := covered[m.Index(b.Box.X0, y):][:w]
			for i, c := range row {
				if c {
					return nil, fmt.Errorf("enkf: point (%d,%d) covered twice", b.Box.X0+i, y)
				}
				row[i] = true
			}
		}
		for k, member := range b.Data {
			if len(member) != b.Box.Points() {
				return nil, fmt.Errorf("enkf: block over %v holds %d values of member %d, want %d", b.Box, len(member), k, b.Box.Points())
			}
			for y := b.Box.Y0; y < b.Box.Y1; y++ {
				copy(out[k][m.Index(b.Box.X0, y):][:w], member[(y-b.Box.Y0)*w:])
			}
		}
	}
	for idx, c := range covered {
		if !c {
			x, y := m.Coords(idx)
			return nil, fmt.Errorf("enkf: point (%d,%d) not covered", x, y)
		}
	}
	return out, nil
}

// EnsembleMean returns the point-wise mean field of an ensemble of
// row-major fields.
func EnsembleMean(fields [][]float64) []float64 {
	if len(fields) == 0 {
		return nil
	}
	out := make([]float64, len(fields[0]))
	for _, f := range fields {
		for i, v := range f {
			out[i] += v
		}
	}
	inv := 1 / float64(len(fields))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// RMSE returns the root-mean-square error between a field and the truth.
func RMSE(field, truth []float64) float64 {
	if len(field) != len(truth) || len(field) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range field {
		d := field[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(field)))
}
