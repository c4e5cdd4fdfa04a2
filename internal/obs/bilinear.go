package obs

import (
	"fmt"
	"math"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// Support is one grid point contributing to an observation with the given
// interpolation weight. A selection observation (the paper's default) has a
// single support point of weight 1; an off-grid observation has up to four
// (bilinear interpolation), realising a non-trivial linear observation
// operator H "constructed from limited observational data" (§4.1).
type Support struct {
	X, Y int
	W    float64
}

// Support returns the observation's support points and weights. For an
// observation at fractional position (X+OffsetX, Y+OffsetY) the weights are
// the bilinear coefficients of the four surrounding grid points; corners
// with zero weight are omitted, so an on-grid observation yields exactly
// one point of weight 1.
func (o Observation) Support() []Support {
	pts, n := o.SupportPoints()
	return pts[:n]
}

// SupportPoints is Support without the heap: the support points fill the
// head of a fixed array and n counts them, row by row (the first point has
// the smallest Y).
func (o Observation) SupportPoints() (pts [4]Support, n int) {
	fx, fy := o.OffsetX, o.OffsetY
	for i, w := range [4]float64{(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy} {
		if w > 0 {
			pts[n] = Support{X: o.X + i&1, Y: o.Y + i>>1, W: w}
			n++
		}
	}
	return pts, n
}

// InterpolateField evaluates the observation operator on a full row-major
// field: the bilinear interpolation at the observation's position.
func (o Observation) InterpolateField(m grid.Mesh, field []float64) float64 {
	var v float64
	pts, n := o.SupportPoints()
	for _, s := range pts[:n] {
		v += s.W * field[m.Index(s.X, s.Y)]
	}
	return v
}

// perturbKeys derives the integer key tuple identifying this observation's
// random streams. Fractional offsets are quantized to 2^-20 grid cells so
// distinct off-grid observations in the same cell get independent streams.
func (o Observation) perturbKeys(member int) [6]int {
	const q = 1 << 20
	return [6]int{0x5EED, o.X, o.Y, int(math.Round(o.OffsetX * q)), int(math.Round(o.OffsetY * q)), member}
}

// RandomOffGridNetwork places count observations at random fractional
// positions, each measuring the bilinear interpolation of the truth plus
// noise of the given variance.
func RandomOffGridNetwork(m grid.Mesh, truth []float64, count int, variance float64, seed uint64) (*Network, error) {
	if count < 0 {
		return nil, fmt.Errorf("obs: negative count %d", count)
	}
	if len(truth) != m.Points() {
		return nil, fmt.Errorf("obs: truth field has %d points, mesh has %d", len(truth), m.Points())
	}
	if variance <= 0 {
		return nil, fmt.Errorf("obs: variance must be positive, got %g", variance)
	}
	if m.NX < 2 || m.NY < 2 {
		return nil, fmt.Errorf("obs: off-grid observations need at least a 2x2 mesh")
	}
	s := linalg.KeyedStream(seed, 0x0B7)
	obsList := make([]Observation, 0, count)
	for i := 0; i < count; i++ {
		o := Observation{
			X:       s.Intn(m.NX - 1),
			Y:       s.Intn(m.NY - 1),
			OffsetX: s.Float64(),
			OffsetY: s.Float64(),
		}
		o.Variance = variance
		keys := o.perturbKeys(-1)
		ns := linalg.KeyedStream(seed, keys[:]...)
		o.Value = o.InterpolateField(m, truth) + ns.Norm()*sqrt(variance)
		obsList = append(obsList, o)
	}
	return NewNetwork(m, obsList)
}
