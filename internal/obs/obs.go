// Package obs models the observational side of the assimilation problem:
// observation networks over the mesh, the linear observation operator H
// (a selection operator — each observation measures the model state at one
// grid point, possibly sparse as in the "sparse observational networks" the
// paper motivates localization radii with), the data-error covariance R
// (diagonal), and the perturbed observations Yˢ with error distribution
// N(0, R) of Eq. (3).
//
// Perturbations are drawn from deterministic per-(observation, member)
// streams, so every parallel layout reproduces exactly the same Yˢ — the
// property the correctness triangle between the serial reference and the
// three parallel implementations depends on.
package obs

import (
	"fmt"
	"math"
	"sort"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// Observation is a single observed component: the location it measures,
// its observed value, and its error variance (the corresponding diagonal
// entry of R). With zero offsets the observation sits on grid point (X, Y)
// and the observation operator is a selection (the paper's default); with
// fractional offsets it sits at (X+OffsetX, Y+OffsetY) and the operator is
// the bilinear interpolation of the four surrounding points (see Support).
type Observation struct {
	X, Y             int     // base grid point
	OffsetX, OffsetY float64 // fractional position within the cell, in [0, 1)
	Value            float64 // observed value y
	Variance         float64 // data error variance (R diagonal entry)
}

// Network is the full observation set over a mesh, ordered by row-major
// grid position so any sub-setting is deterministic.
type Network struct {
	Mesh grid.Mesh
	Obs  []Observation
}

// Len returns m, the number of observed components.
func (n *Network) Len() int { return len(n.Obs) }

// sortObs orders observations row-major by (y, x).
func sortObs(obs []Observation) {
	sort.Slice(obs, func(a, b int) bool {
		if obs[a].Y != obs[b].Y {
			return obs[a].Y < obs[b].Y
		}
		if obs[a].X != obs[b].X {
			return obs[a].X < obs[b].X
		}
		if obs[a].OffsetY != obs[b].OffsetY {
			return obs[a].OffsetY < obs[b].OffsetY
		}
		return obs[a].OffsetX < obs[b].OffsetX
	})
}

// NewNetwork validates the observations — support on the mesh, offsets in
// [0,1), a positive finite variance, a finite value — and returns a network.
// Every comparison is written to fail on NaN.
func NewNetwork(m grid.Mesh, obs []Observation) (*Network, error) {
	inCell := func(off float64) bool { return off >= 0 && off < 1 }
	for i, o := range obs {
		if !inCell(o.OffsetX) || !inCell(o.OffsetY) {
			return nil, fmt.Errorf("obs: observation %d has offsets (%g,%g) outside [0,1)", i, o.OffsetX, o.OffsetY)
		}
		for _, s := range o.Support() {
			if !m.Contains(s.X, s.Y) {
				return nil, fmt.Errorf("obs: observation %d support point (%d,%d) outside %dx%d mesh", i, s.X, s.Y, m.NX, m.NY)
			}
		}
		if !(o.Variance > 0) || math.IsInf(o.Variance, 1) {
			return nil, fmt.Errorf("obs: observation %d has non-positive or non-finite variance %g", i, o.Variance)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return nil, fmt.Errorf("obs: observation %d has non-finite value %g", i, o.Value)
		}
	}
	cp := make([]Observation, len(obs))
	copy(cp, obs)
	sortObs(cp)
	return &Network{Mesh: m, Obs: cp}, nil
}

// StridedNetwork builds a regular network observing every strideX-th point
// along x and strideY-th along y, measuring the truth field plus noise with
// the given variance. truth is a row-major n_y × n_x field. The noise is
// deterministic in (seed, x, y).
func StridedNetwork(m grid.Mesh, truth []float64, strideX, strideY int, variance float64, seed uint64) (*Network, error) {
	if strideX <= 0 || strideY <= 0 {
		return nil, fmt.Errorf("obs: strides must be positive, got %d, %d", strideX, strideY)
	}
	if len(truth) != m.Points() {
		return nil, fmt.Errorf("obs: truth field has %d points, mesh has %d", len(truth), m.Points())
	}
	if variance <= 0 {
		return nil, fmt.Errorf("obs: variance must be positive, got %g", variance)
	}
	var obs []Observation
	for y := 0; y < m.NY; y += strideY {
		for x := 0; x < m.NX; x += strideX {
			s := linalg.KeyedStream(seed, 0x0B5, x, y)
			obs = append(obs, Observation{
				X: x, Y: y,
				Value:    truth[m.Index(x, y)] + s.Norm()*sqrt(variance),
				Variance: variance,
			})
		}
	}
	return NewNetwork(m, obs)
}

// InBox returns the observations whose entire support lies inside the box,
// preserving order. This is the restriction of (H, R, Yˢ) to an expansion
// D̄ (Eq. 6): an observation is usable by a processor exactly when all grid
// points its operator touches are available locally.
func (n *Network) InBox(b grid.Box) []Observation {
	var out []Observation
	for _, o := range n.Obs {
		if ObsInBox(o, b) {
			out = append(out, o)
		}
	}
	return out
}

// ObsInBox reports whether every support point of o lies inside b.
func ObsInBox(o Observation, b grid.Box) bool {
	pts, n := o.SupportPoints()
	for _, s := range pts[:n] {
		if !b.Contains(s.X, s.Y) {
			return false
		}
	}
	return true
}

// Perturbed returns the perturbed observation yˢ_k = y + ε, ε ~ N(0, R_ii)
// for ensemble member k, deterministic in (seed, x, y, k). This realises
// the matrix Yˢ ∈ ℝ^{m×N} of Eq. (3) one entry at a time so that any
// process may reproduce exactly the entries it needs.
func Perturbed(o Observation, member int, seed uint64) float64 {
	keys := o.perturbKeys(member)
	s := linalg.KeyedStream(seed, keys[:]...)
	return o.Value + s.Norm()*sqrt(o.Variance)
}

// CenteredPerturbations returns the N perturbed values yˢ_k for one
// observation with the ensemble mean of the perturbations removed, the
// standard Burgers et al. refinement: the analysis ensemble mean is then
// unaffected by perturbation sampling noise. The result is deterministic in
// (seed, x, y, N) and independent of the process layout, because any process
// can regenerate all N raw perturbations locally.
func CenteredPerturbations(o Observation, members int, seed uint64) []float64 {
	out := make([]float64, members)
	CenteredPerturbationsInto(out, o, seed)
	return out
}

// CenteredPerturbationsInto fills dst with the len(dst) centred perturbed
// values of CenteredPerturbations without allocating.
func CenteredPerturbationsInto(dst []float64, o Observation, seed uint64) {
	var mean float64
	keys := o.perturbKeys(0)
	// The member is the last key: the observation's are mixed once.
	prefix := linalg.Key(seed, keys[:len(keys)-1]...)
	sd := sqrt(o.Variance)
	for k := range dst {
		s := linalg.KeyedStream(prefix, k)
		e := s.Norm() * sd
		dst[k] = e
		mean += e
	}
	mean /= float64(len(dst))
	for k := range dst {
		dst[k] = o.Value + (dst[k] - mean)
	}
}

// PerturbedMatrix materialises Yˢ for a list of observations and N members:
// rows are observations, columns members.
func PerturbedMatrix(obs []Observation, members int, seed uint64) *linalg.Matrix {
	ys := linalg.NewMatrix(len(obs), members)
	for i, o := range obs {
		row := ys.Row(i)
		for k := 0; k < members; k++ {
			row[k] = Perturbed(o, k, seed)
		}
	}
	return ys
}

// ApplyH applies the observation operator to a state vector restricted to
// box b (row-major within b): out[i] = Σ w·state at observation i's support.
func ApplyH(obs []Observation, b grid.Box, state []float64) ([]float64, error) {
	if len(state) != b.Points() {
		return nil, fmt.Errorf("obs: state has %d points, box %v has %d", len(state), b, b.Points())
	}
	out := make([]float64, len(obs))
	for i, o := range obs {
		if !ObsInBox(o, b) {
			return nil, fmt.Errorf("obs: observation at (%d,%d)+(%g,%g) has support outside box %v", o.X, o.Y, o.OffsetX, o.OffsetY, b)
		}
		var v float64
		for _, s := range o.Support() {
			v += s.W * state[(s.Y-b.Y0)*b.Width()+(s.X-b.X0)]
		}
		out[i] = v
	}
	return out, nil
}

func sqrt(v float64) float64 { return math.Sqrt(v) }
