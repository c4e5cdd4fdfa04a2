// Package grid implements the 2-dimensional latitude–longitude mesh used by
// the ensemble Kalman filter, together with the geometric machinery the
// S-EnKF paper builds on: local influence boxes derived from a radius of
// influence r (§2.2), non-overlapping domain decomposition into
// n_sdx × n_sdy sub-domains, sub-domain expansions D̄ (sub-domain plus the
// halo needed for local analysis), and the L-layer splitting of each
// sub-domain that enables the multi-stage computation of §4.2.
//
// Conventions. A mesh has n_x points along the longitude (x) direction and
// n_y points along the latitude (y) direction. A model state is stored
// row-major with latitude rows: index(x, y) = y*n_x + x. A "bar" is a
// contiguous range of full latitude rows (one seek on disk); a "block" is a
// rectangle strided across rows.
package grid

import (
	"errors"
	"fmt"
)

// Mesh describes the global latitude–longitude mesh.
type Mesh struct {
	NX int // points along longitude (columns)
	NY int // points along latitude (rows)
}

// NewMesh validates and returns a mesh with nx × ny grid points.
func NewMesh(nx, ny int) (Mesh, error) {
	if nx <= 0 || ny <= 0 {
		return Mesh{}, fmt.Errorf("grid: mesh dimensions must be positive, got %d x %d", nx, ny)
	}
	return Mesh{NX: nx, NY: ny}, nil
}

// Points returns the total number of model components n = n_x · n_y.
func (m Mesh) Points() int { return m.NX * m.NY }

// Index returns the row-major linear index of grid point (x, y).
func (m Mesh) Index(x, y int) int { return y*m.NX + x }

// Coords inverts Index.
func (m Mesh) Coords(idx int) (x, y int) { return idx % m.NX, idx / m.NX }

// Contains reports whether (x, y) lies on the mesh.
func (m Mesh) Contains(x, y int) bool {
	return x >= 0 && x < m.NX && y >= 0 && y < m.NY
}

// Box is a half-open rectangle [X0, X1) × [Y0, Y1) of grid points.
type Box struct {
	X0, X1 int
	Y0, Y1 int
}

// Width returns the number of points along x.
func (b Box) Width() int { return b.X1 - b.X0 }

// Height returns the number of points along y.
func (b Box) Height() int { return b.Y1 - b.Y0 }

// Points returns the number of grid points inside the box.
func (b Box) Points() int { return b.Width() * b.Height() }

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 }

// Contains reports whether (x, y) is inside the box.
func (b Box) Contains(x, y int) bool {
	return x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1
}

// Intersect returns the intersection of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{X0: max(b.X0, o.X0), X1: min(b.X1, o.X1), Y0: max(b.Y0, o.Y0), Y1: min(b.Y1, o.Y1)}
	if r.Empty() {
		return Box{}
	}
	return r
}

// Clamp clips the box to the mesh.
func (b Box) Clamp(m Mesh) Box {
	return b.Intersect(Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY})
}

// Expand grows the box by xi points along x and eta points along y in both
// directions, clamped to the mesh. This is the expansion D̄ of §2.2.
func (b Box) Expand(m Mesh, xi, eta int) Box {
	return Box{X0: b.X0 - xi, X1: b.X1 + xi, Y0: b.Y0 - eta, Y1: b.Y1 + eta}.Clamp(m)
}

func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1)
}

// Radius describes the influence scope of the domain localization: a local
// box of dimension (2ξ+1, 2η+1) containing the circle of radius r (§2.2).
// Xi and Eta may differ because the grid spacing differs along longitude and
// latitude.
type Radius struct {
	Xi  int // half-width of the local box along longitude
	Eta int // half-height of the local box along latitude
}

// NewRadius validates a localization radius.
func NewRadius(xi, eta int) (Radius, error) {
	if xi < 0 || eta < 0 {
		return Radius{}, fmt.Errorf("grid: localization half-widths must be non-negative, got xi=%d eta=%d", xi, eta)
	}
	return Radius{Xi: xi, Eta: eta}, nil
}

// LocalBox returns the local influence box for grid point (x, y), clamped to
// the mesh: the blue region of Figure 2(a).
func (r Radius) LocalBox(m Mesh, x, y int) Box {
	return Box{X0: x - r.Xi, X1: x + r.Xi + 1, Y0: y - r.Eta, Y1: y + r.Eta + 1}.Clamp(m)
}

// ErrIndivisible is returned when the mesh cannot be evenly decomposed.
var ErrIndivisible = errors.New("grid: mesh dimension is not a multiple of the sub-domain count")

// Decomposition is the non-overlapping split of the mesh into
// n_sdx × n_sdy sub-domains (§2.2). The paper requires n_x to be a multiple
// of n_sdx and n_y a multiple of n_sdy.
type Decomposition struct {
	Mesh Mesh
	NSdx int // sub-domains along longitude
	NSdy int // sub-domains along latitude
	R    Radius
}

// NewDecomposition validates divisibility and returns the decomposition.
func NewDecomposition(m Mesh, nsdx, nsdy int, r Radius) (Decomposition, error) {
	if nsdx <= 0 || nsdy <= 0 {
		return Decomposition{}, fmt.Errorf("grid: sub-domain counts must be positive, got %d x %d", nsdx, nsdy)
	}
	if m.NX%nsdx != 0 {
		return Decomposition{}, fmt.Errorf("%w: n_x=%d, n_sdx=%d", ErrIndivisible, m.NX, nsdx)
	}
	if m.NY%nsdy != 0 {
		return Decomposition{}, fmt.Errorf("%w: n_y=%d, n_sdy=%d", ErrIndivisible, m.NY, nsdy)
	}
	return Decomposition{Mesh: m, NSdx: nsdx, NSdy: nsdy, R: r}, nil
}

// SubDomains returns n_s = n_sdx · n_sdy.
func (d Decomposition) SubDomains() int { return d.NSdx * d.NSdy }

// PointsPerSubDomain returns n_sd = n / n_s.
func (d Decomposition) PointsPerSubDomain() int {
	return d.Mesh.Points() / d.SubDomains()
}

// SubWidth returns n_x / n_sdx.
func (d Decomposition) SubWidth() int { return d.Mesh.NX / d.NSdx }

// SubHeight returns n_y / n_sdy.
func (d Decomposition) SubHeight() int { return d.Mesh.NY / d.NSdy }

// SubDomain returns D_{i,j}: the sub-domain at column i (longitude,
// 0 ≤ i < n_sdx) and row j (latitude, 0 ≤ j < n_sdy).
func (d Decomposition) SubDomain(i, j int) Box {
	w, h := d.SubWidth(), d.SubHeight()
	return Box{X0: i * w, X1: (i + 1) * w, Y0: j * h, Y1: (j + 1) * h}
}

// Expansion returns D̄_{i,j}: the sub-domain expanded by (ξ, η), clamped to
// the mesh — all data needed for local assimilation at D_{i,j} (§2.2).
func (d Decomposition) Expansion(i, j int) Box {
	return d.SubDomain(i, j).Expand(d.Mesh, d.R.Xi, d.R.Eta)
}

// ExpansionUnclamped returns the paper's nominal expansion size
// n̄_sd = (n_x/n_sdx + 2ξ)(n_y/n_sdy + 2η) as used in the cost models; it
// ignores clamping at the mesh boundary.
func (d Decomposition) ExpansionUnclamped() (w, h int) {
	return d.SubWidth() + 2*d.R.Xi, d.SubHeight() + 2*d.R.Eta
}

// RankOf maps a sub-domain coordinate to its canonical rank
// (row-major over (j, i)).
func (d Decomposition) RankOf(i, j int) int { return j*d.NSdx + i }

// CoordsOf inverts RankOf.
func (d Decomposition) CoordsOf(rank int) (i, j int) {
	return rank % d.NSdx, rank / d.NSdx
}

// OwnerOf returns the sub-domain coordinate (i, j) owning grid point (x, y).
func (d Decomposition) OwnerOf(x, y int) (i, j int) {
	return x / d.SubWidth(), y / d.SubHeight()
}

// Layer returns layer l of the L latitude layers D'_{i,j,l} that split
// sub-domain D_{i,j} (§4.2): the rows [Y0 + l·h/L, Y0 + (l+1)·h/L). The
// sub-domain height must be a multiple of L, and l must lie in [0, L).
func (d Decomposition) Layer(i, j, l, L int) (Box, error) {
	if L <= 0 || d.SubHeight()%L != 0 {
		return Box{}, fmt.Errorf("%w: sub-domain height %d, layers %d", ErrIndivisible, d.SubHeight(), L)
	}
	if l < 0 || l >= L {
		return Box{}, fmt.Errorf("grid: layer %d outside [0, %d)", l, L)
	}
	sd, lh := d.SubDomain(i, j), d.SubHeight()/L
	return Box{X0: sd.X0, X1: sd.X1, Y0: sd.Y0 + l*lh, Y1: sd.Y0 + (l+1)*lh}, nil
}

// LayerExpansion returns the expansion of layer l of D_{i,j}: the data
// needed to run local analysis on exactly that layer (Figure 7) — the rows
// of stage l's small bar, the columns of the sub-domain's own expansion.
func (d Decomposition) LayerExpansion(i, j, l, L int) (Box, error) {
	layer, err := d.Layer(i, j, l, L)
	if err != nil {
		return Box{}, err
	}
	return layer.Expand(d.Mesh, d.R.Xi, d.R.Eta), nil
}

// Bar returns the contiguous latitude bar assigned to I/O row index j under
// the bar-reading approach (§4.1.2): full rows [j·n_y/n_sdy, (j+1)·n_y/n_sdy).
func (d Decomposition) Bar(j int) Box {
	h := d.SubHeight()
	return Box{X0: 0, X1: d.Mesh.NX, Y0: j * h, Y1: (j + 1) * h}
}

// BarExpansion returns the bar expanded by η rows on each side (the small
// overlapped bars of §4.3 include halo rows so compute ranks receive full
// expansions).
func (d Decomposition) BarExpansion(j int) Box {
	return d.Bar(j).Expand(d.Mesh, 0, d.R.Eta)
}

// LayerBar returns the rows of stage l of I/O row j: the portion of bar j
// covering layer l of every sub-domain in row j, expanded by η (one of the
// n_sdy × L overlapping small bars of §4.3).
func (d Decomposition) LayerBar(j, l, L int) (Box, error) {
	if L <= 0 || d.SubHeight()%L != 0 {
		return Box{}, fmt.Errorf("%w: sub-domain height %d, layers %d", ErrIndivisible, d.SubHeight(), L)
	}
	lh := d.SubHeight() / L
	bar := d.Bar(j)
	b := Box{X0: 0, X1: d.Mesh.NX, Y0: bar.Y0 + l*lh, Y1: bar.Y0 + (l+1)*lh}
	return b.Expand(d.Mesh, 0, d.R.Eta), nil
}
