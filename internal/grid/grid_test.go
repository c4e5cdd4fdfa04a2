package grid

import (
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, nx, ny int) Mesh {
	t.Helper()
	m, err := NewMesh(nx, ny)
	if err != nil {
		t.Fatalf("NewMesh(%d,%d): %v", nx, ny, err)
	}
	return m
}

func mustDecomp(t *testing.T, m Mesh, nsdx, nsdy int, r Radius) Decomposition {
	t.Helper()
	d, err := NewDecomposition(m, nsdx, nsdy, r)
	if err != nil {
		t.Fatalf("NewDecomposition: %v", err)
	}
	return d
}

func TestNewMeshRejectsNonPositive(t *testing.T) {
	for _, c := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {5, -2}} {
		if _, err := NewMesh(c[0], c[1]); err == nil {
			t.Errorf("NewMesh(%d,%d): expected error", c[0], c[1])
		}
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	m := mustMesh(t, 7, 5)
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			idx := m.Index(x, y)
			gx, gy := m.Coords(idx)
			if gx != x || gy != y {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, idx, gx, gy)
			}
		}
	}
	if m.Points() != 35 {
		t.Errorf("Points = %d, want 35", m.Points())
	}
}

func TestIndexIsRowMajorContiguous(t *testing.T) {
	m := mustMesh(t, 9, 4)
	// Consecutive x in the same latitude row must be adjacent in memory:
	// this is what makes a "bar" (full rows) contiguous on disk.
	for y := 0; y < m.NY; y++ {
		for x := 0; x+1 < m.NX; x++ {
			if m.Index(x+1, y) != m.Index(x, y)+1 {
				t.Fatalf("row %d not contiguous at x=%d", y, x)
			}
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := Box{X0: 2, X1: 6, Y0: 1, Y1: 4}
	if b.Width() != 4 || b.Height() != 3 || b.Points() != 12 {
		t.Errorf("box geometry wrong: %+v", b)
	}
	if b.Empty() {
		t.Error("box should not be empty")
	}
	if !b.Contains(2, 1) || !b.Contains(5, 3) {
		t.Error("Contains misses corners")
	}
	if b.Contains(6, 1) || b.Contains(2, 4) {
		t.Error("Contains includes exclusive bounds")
	}
	if !(Box{X0: 3, X1: 3, Y0: 0, Y1: 2}).Empty() {
		t.Error("zero-width box should be empty")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{X0: 0, X1: 4, Y0: 0, Y1: 4}
	b := Box{X0: 2, X1: 6, Y0: 1, Y1: 3}
	got := a.Intersect(b)
	want := Box{X0: 2, X1: 4, Y0: 1, Y1: 3}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	disjoint := a.Intersect(Box{X0: 10, X1: 12, Y0: 0, Y1: 1})
	if !disjoint.Empty() {
		t.Errorf("disjoint intersect should be empty, got %v", disjoint)
	}
}

func TestLocalBoxClampsAtBoundary(t *testing.T) {
	m := mustMesh(t, 10, 8)
	r := Radius{Xi: 4, Eta: 2}
	inner := r.LocalBox(m, 5, 4)
	if inner.Width() != 2*r.Xi+1 || inner.Height() != 2*r.Eta+1 {
		t.Errorf("interior local box %v should be (2ξ+1)x(2η+1)", inner)
	}
	corner := r.LocalBox(m, 0, 0)
	want := Box{X0: 0, X1: 5, Y0: 0, Y1: 3}
	if corner != want {
		t.Errorf("corner local box = %v, want %v", corner, want)
	}
}

func TestDecompositionDivisibility(t *testing.T) {
	m := mustMesh(t, 12, 6)
	if _, err := NewDecomposition(m, 5, 2, Radius{}); err == nil {
		t.Error("expected indivisible n_x error")
	}
	if _, err := NewDecomposition(m, 4, 4, Radius{}); err == nil {
		t.Error("expected indivisible n_y error")
	}
	d := mustDecomp(t, m, 4, 3, Radius{Xi: 1, Eta: 1})
	if d.SubDomains() != 12 || d.PointsPerSubDomain() != 6 {
		t.Errorf("decomposition counts wrong: %d sub-domains, %d points", d.SubDomains(), d.PointsPerSubDomain())
	}
}

func TestSubDomainsTileTheMesh(t *testing.T) {
	m := mustMesh(t, 12, 9)
	d := mustDecomp(t, m, 3, 3, Radius{Xi: 2, Eta: 1})
	seen := make([]int, m.Points())
	for j := 0; j < d.NSdy; j++ {
		for i := 0; i < d.NSdx; i++ {
			sd := d.SubDomain(i, j)
			for y := sd.Y0; y < sd.Y1; y++ {
				for x := sd.X0; x < sd.X1; x++ {
					seen[m.Index(x, y)]++
				}
			}
		}
	}
	for idx, c := range seen {
		if c != 1 {
			x, y := m.Coords(idx)
			t.Fatalf("point (%d,%d) covered %d times", x, y, c)
		}
	}
}

func TestExpansionContainsAllLocalBoxes(t *testing.T) {
	m := mustMesh(t, 20, 12)
	r := Radius{Xi: 3, Eta: 2}
	d := mustDecomp(t, m, 4, 3, r)
	for j := 0; j < d.NSdy; j++ {
		for i := 0; i < d.NSdx; i++ {
			sd := d.SubDomain(i, j)
			exp := d.Expansion(i, j)
			for y := sd.Y0; y < sd.Y1; y++ {
				for x := sd.X0; x < sd.X1; x++ {
					lb := r.LocalBox(m, x, y)
					if lb.Intersect(exp) != lb {
						t.Fatalf("local box %v of (%d,%d) not inside expansion %v", lb, x, y, exp)
					}
				}
			}
		}
	}
}

func TestRankOfRoundTrip(t *testing.T) {
	m := mustMesh(t, 12, 9)
	d := mustDecomp(t, m, 4, 3, Radius{})
	for j := 0; j < d.NSdy; j++ {
		for i := 0; i < d.NSdx; i++ {
			rank := d.RankOf(i, j)
			gi, gj := d.CoordsOf(rank)
			if gi != i || gj != j {
				t.Fatalf("rank round trip (%d,%d) -> %d -> (%d,%d)", i, j, rank, gi, gj)
			}
		}
	}
}

func TestOwnerOf(t *testing.T) {
	m := mustMesh(t, 12, 9)
	d := mustDecomp(t, m, 4, 3, Radius{})
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			i, j := d.OwnerOf(x, y)
			if !d.SubDomain(i, j).Contains(x, y) {
				t.Fatalf("OwnerOf(%d,%d) = (%d,%d) but sub-domain %v does not contain it", x, y, i, j, d.SubDomain(i, j))
			}
		}
	}
}

func TestLayersPartitionSubDomain(t *testing.T) {
	m := mustMesh(t, 12, 12)
	d := mustDecomp(t, m, 3, 2, Radius{Xi: 1, Eta: 1})
	sd := d.SubDomain(1, 1)
	total := 0
	prevY := sd.Y0
	for l := 0; l < 3; l++ {
		b, err := d.Layer(1, 1, l, 3)
		if err != nil {
			t.Fatalf("Layer: %v", err)
		}
		if b.X0 != sd.X0 || b.X1 != sd.X1 {
			t.Errorf("layer %d x-range %v differs from sub-domain %v", l, b, sd)
		}
		if b.Y0 != prevY {
			t.Errorf("layer %d not contiguous: Y0=%d want %d", l, b.Y0, prevY)
		}
		prevY = b.Y1
		total += b.Points()
	}
	if prevY != sd.Y1 || total != sd.Points() {
		t.Errorf("layers do not cover sub-domain: total=%d want %d", total, sd.Points())
	}
	if _, err := d.Layer(0, 0, 0, 4); err == nil {
		t.Error("expected error for indivisible layer count")
	}
	if _, err := d.Layer(0, 0, 0, 0); err == nil {
		t.Error("expected error for L=0")
	}
}

// A layer index outside [0, L) is an error, not an index panic; so is a
// layer count the sub-domain height does not divide.
func TestLayerExpansionRejectsBadLayer(t *testing.T) {
	d := mustDecomp(t, mustMesh(t, 16, 12), 4, 2, Radius{Xi: 2, Eta: 2})
	for _, c := range []struct{ l, L int }{{3, 3}, {-1, 3}, {0, 0}, {0, 4}} {
		if _, err := d.LayerExpansion(0, 0, c.l, c.L); err == nil {
			t.Errorf("LayerExpansion(0, 0, %d, %d): no error", c.l, c.L)
		}
	}
	if _, err := d.LayerExpansion(0, 0, 2, 3); err != nil {
		t.Errorf("LayerExpansion(0, 0, 2, 3): %v", err)
	}
}

func TestLayerExpansionCoversLayerLocalBoxes(t *testing.T) {
	m := mustMesh(t, 16, 12)
	r := Radius{Xi: 2, Eta: 2}
	d := mustDecomp(t, m, 4, 2, r)
	const L = 3
	for j := 0; j < d.NSdy; j++ {
		for i := 0; i < d.NSdx; i++ {
			for l := 0; l < L; l++ {
				layer, err := d.Layer(i, j, l, L)
				if err != nil {
					t.Fatalf("Layer: %v", err)
				}
				exp, err := d.LayerExpansion(i, j, l, L)
				if err != nil {
					t.Fatalf("LayerExpansion: %v", err)
				}
				for y := layer.Y0; y < layer.Y1; y++ {
					for x := layer.X0; x < layer.X1; x++ {
						lb := r.LocalBox(m, x, y)
						if lb.Intersect(exp) != lb {
							t.Fatalf("layer %d point (%d,%d): local box %v outside layer expansion %v", l, x, y, lb, exp)
						}
					}
				}
			}
		}
	}
}

func TestBarsAreContiguousRowRanges(t *testing.T) {
	m := mustMesh(t, 30, 12)
	d := mustDecomp(t, m, 5, 4, Radius{Xi: 1, Eta: 1})
	prev := 0
	for j := 0; j < d.NSdy; j++ {
		b := d.Bar(j)
		if b.X0 != 0 || b.X1 != m.NX {
			t.Errorf("bar %d must span full rows, got %v", j, b)
		}
		if b.Y0 != prev {
			t.Errorf("bar %d not contiguous with previous: Y0=%d want %d", j, b.Y0, prev)
		}
		prev = b.Y1
	}
	if prev != m.NY {
		t.Errorf("bars do not cover mesh: end=%d want %d", prev, m.NY)
	}
}

func TestBarExpansionHasEtaHalo(t *testing.T) {
	m := mustMesh(t, 30, 12)
	d := mustDecomp(t, m, 5, 4, Radius{Xi: 2, Eta: 1})
	// Interior bar: halo on both sides.
	be := d.BarExpansion(1)
	b := d.Bar(1)
	if be.Y0 != b.Y0-1 || be.Y1 != b.Y1+1 {
		t.Errorf("interior bar expansion %v want halo of 1 around %v", be, b)
	}
	// Boundary bar: clamped.
	be0 := d.BarExpansion(0)
	if be0.Y0 != 0 {
		t.Errorf("boundary bar expansion should clamp to 0, got %v", be0)
	}
}

func TestLayerBarCoversLayerExpansionRows(t *testing.T) {
	m := mustMesh(t, 24, 12)
	r := Radius{Xi: 2, Eta: 2}
	d := mustDecomp(t, m, 4, 2, r)
	const L = 2
	for j := 0; j < d.NSdy; j++ {
		for l := 0; l < L; l++ {
			lb, err := d.LayerBar(j, l, L)
			if err != nil {
				t.Fatalf("LayerBar: %v", err)
			}
			for i := 0; i < d.NSdx; i++ {
				exp, err := d.LayerExpansion(i, j, l, L)
				if err != nil {
					t.Fatalf("LayerExpansion: %v", err)
				}
				if exp.Y0 < lb.Y0 || exp.Y1 > lb.Y1 {
					t.Fatalf("layer expansion rows %v outside layer bar %v", exp, lb)
				}
			}
		}
	}
}

func TestLayerBarsUnionCoversBarExpansion(t *testing.T) {
	m := mustMesh(t, 24, 24)
	d := mustDecomp(t, m, 4, 3, Radius{Xi: 1, Eta: 2})
	const L = 4
	for j := 0; j < d.NSdy; j++ {
		covered := map[int]bool{}
		for l := 0; l < L; l++ {
			lb, err := d.LayerBar(j, l, L)
			if err != nil {
				t.Fatalf("LayerBar: %v", err)
			}
			for y := lb.Y0; y < lb.Y1; y++ {
				covered[y] = true
			}
		}
		be := d.BarExpansion(j)
		for y := be.Y0; y < be.Y1; y++ {
			if !covered[y] {
				t.Fatalf("row %d of bar expansion %v not covered by layer bars", y, be)
			}
		}
	}
}

func TestQuickDecompositionInvariants(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		nsdx := int(a%6) + 1
		nsdy := int(b%6) + 1
		subw := int(c%5) + 1
		subh := int(d%5) + 1
		m, err := NewMesh(nsdx*subw, nsdy*subh)
		if err != nil {
			return false
		}
		dec, err := NewDecomposition(m, nsdx, nsdy, Radius{Xi: 1, Eta: 1})
		if err != nil {
			return false
		}
		// Every point is owned by exactly the sub-domain OwnerOf says,
		// and ranks are a bijection.
		total := 0
		for j := 0; j < nsdy; j++ {
			for i := 0; i < nsdx; i++ {
				total += dec.SubDomain(i, j).Points()
			}
		}
		return total == m.Points()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExpandClampNeverLeavesMesh(t *testing.T) {
	f := func(x0, w, y0, h, xi, eta uint8) bool {
		m, _ := NewMesh(32, 32)
		b := Box{
			X0: int(x0 % 32), Y0: int(y0 % 32),
		}
		b.X1 = b.X0 + int(w%8) + 1
		b.Y1 = b.Y0 + int(h%8) + 1
		e := b.Expand(m, int(xi%6), int(eta%6))
		return e.X0 >= 0 && e.Y0 >= 0 && e.X1 <= m.NX && e.Y1 <= m.NY && !e.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
