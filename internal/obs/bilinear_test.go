package obs

import (
	"math"
	"testing"
	"testing/quick"

	"senkf/internal/grid"
)

func TestSupportSelectionIsSinglePoint(t *testing.T) {
	o := Observation{X: 3, Y: 5, Variance: 1}
	sup := o.Support()
	if len(sup) != 1 || sup[0] != (Support{X: 3, Y: 5, W: 1}) {
		t.Errorf("on-grid support = %+v", sup)
	}
}

func TestSupportWeightsSumToOne(t *testing.T) {
	f := func(fx, fy uint16) bool {
		o := Observation{
			X: 1, Y: 1,
			OffsetX:  float64(fx) / 65536,
			OffsetY:  float64(fy) / 65536,
			Variance: 1,
		}
		var sum float64
		for _, s := range o.Support() {
			if s.W <= 0 {
				return false
			}
			sum += s.W
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBilinearReproducesLinearFields(t *testing.T) {
	// Bilinear interpolation is exact on fields linear in x and y.
	m, err := grid.NewMesh(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	field := make([]float64, m.Points())
	lin := func(x, y float64) float64 { return 2*x - 3*y + 0.5 }
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			field[m.Index(x, y)] = lin(float64(x), float64(y))
		}
	}
	for _, c := range []struct{ fx, fy float64 }{{0, 0}, {0.5, 0}, {0, 0.5}, {0.25, 0.75}, {0.9, 0.1}} {
		o := Observation{X: 3, Y: 2, OffsetX: c.fx, OffsetY: c.fy, Variance: 1}
		got := o.InterpolateField(m, field)
		want := lin(3+c.fx, 2+c.fy)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("offset (%g,%g): interpolated %g, want %g", c.fx, c.fy, got, want)
		}
	}
}

func TestNewNetworkValidatesOffsets(t *testing.T) {
	m, _ := grid.NewMesh(4, 4)
	if _, err := NewNetwork(m, []Observation{{X: 0, Y: 0, OffsetX: 1.0, Variance: 1}}); err == nil {
		t.Error("offset 1.0 accepted")
	}
	if _, err := NewNetwork(m, []Observation{{X: 0, Y: 0, OffsetY: -0.1, Variance: 1}}); err == nil {
		t.Error("negative offset accepted")
	}
	// Support off the mesh edge: base point at the last column with a
	// positive x offset needs x+1 which is outside.
	if _, err := NewNetwork(m, []Observation{{X: 3, Y: 0, OffsetX: 0.5, Variance: 1}}); err == nil {
		t.Error("edge support accepted")
	}
	// On-grid at the last column is fine.
	if _, err := NewNetwork(m, []Observation{{X: 3, Y: 3, Variance: 1}}); err != nil {
		t.Errorf("valid edge observation rejected: %v", err)
	}
}

func TestObsInBoxRequiresFullSupport(t *testing.T) {
	b := grid.Box{X0: 2, X1: 5, Y0: 2, Y1: 5}
	inside := Observation{X: 3, Y: 3, OffsetX: 0.5, OffsetY: 0.5, Variance: 1}
	if !ObsInBox(inside, b) {
		t.Error("fully supported observation rejected")
	}
	// Support spans x=4 and x=5; x=5 is outside [2,5).
	edge := Observation{X: 4, Y: 3, OffsetX: 0.5, Variance: 1}
	if ObsInBox(edge, b) {
		t.Error("observation with support crossing the box boundary accepted")
	}
	// On-grid at x=4 is inside.
	onGrid := Observation{X: 4, Y: 3, Variance: 1}
	if !ObsInBox(onGrid, b) {
		t.Error("on-grid boundary observation rejected")
	}
}

func TestRandomOffGridNetwork(t *testing.T) {
	m, _ := grid.NewMesh(12, 10)
	truth := make([]float64, m.Points())
	for i := range truth {
		truth[i] = float64(i % 7)
	}
	n, err := RandomOffGridNetwork(m, truth, 30, 0.04, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 30 {
		t.Fatalf("got %d observations", n.Len())
	}
	offGrid := 0
	for _, o := range n.Obs {
		if o.OffsetX != 0 || o.OffsetY != 0 {
			offGrid++
		}
		if o.Variance != 0.04 {
			t.Fatalf("variance %g", o.Variance)
		}
	}
	if offGrid < 25 {
		t.Errorf("only %d of 30 observations are off-grid", offGrid)
	}
	// Deterministic.
	n2, err := RandomOffGridNetwork(m, truth, 30, 0.04, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Obs {
		if n.Obs[i] != n2.Obs[i] {
			t.Fatal("off-grid network not deterministic")
		}
	}
}

func TestRandomOffGridNetworkValidation(t *testing.T) {
	m, _ := grid.NewMesh(12, 10)
	truth := make([]float64, m.Points())
	if _, err := RandomOffGridNetwork(m, truth, -1, 1, 1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := RandomOffGridNetwork(m, truth[:5], 3, 1, 1); err == nil {
		t.Error("short truth accepted")
	}
	if _, err := RandomOffGridNetwork(m, truth, 3, 0, 1); err == nil {
		t.Error("zero variance accepted")
	}
	tiny, _ := grid.NewMesh(1, 1)
	if _, err := RandomOffGridNetwork(tiny, make([]float64, 1), 1, 1, 1); err == nil {
		t.Error("1x1 mesh accepted")
	}
}

func TestOffGridPerturbationsIndependent(t *testing.T) {
	// Two off-grid observations in the same cell must have independent
	// perturbation streams.
	a := Observation{X: 2, Y: 2, OffsetX: 0.25, OffsetY: 0.25, Value: 1, Variance: 1}
	b := Observation{X: 2, Y: 2, OffsetX: 0.75, OffsetY: 0.25, Value: 1, Variance: 1}
	if Perturbed(a, 0, 7) == Perturbed(b, 0, 7) {
		t.Error("same-cell off-grid observations share a perturbation stream")
	}
	if Perturbed(a, 0, 7) != Perturbed(a, 0, 7) {
		t.Error("perturbation not deterministic")
	}
}

func TestApplyHBilinear(t *testing.T) {
	b := grid.Box{X0: 0, X1: 4, Y0: 0, Y1: 4}
	state := make([]float64, b.Points())
	for i := range state {
		state[i] = float64(i)
	}
	// Observation at (1.5, 1.5): mean of the four surrounding values.
	o := Observation{X: 1, Y: 1, OffsetX: 0.5, OffsetY: 0.5, Variance: 1}
	got, err := ApplyH([]Observation{o}, b, state)
	if err != nil {
		t.Fatal(err)
	}
	want := (state[1*4+1] + state[1*4+2] + state[2*4+1] + state[2*4+2]) / 4
	if math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("bilinear H = %g, want %g", got[0], want)
	}
	// Support crossing the box edge fails.
	edge := Observation{X: 3, Y: 1, OffsetX: 0.5, Variance: 1}
	if _, err := ApplyH([]Observation{edge}, b, state); err == nil {
		t.Error("edge-crossing support accepted")
	}
}

// The per-candidate and per-observation calls of the local analysis must not
// touch the heap: ObsInBox runs once per candidate per box, the perturbation
// fill once per usable observation.
func TestHotPathDoesNotAllocate(t *testing.T) {
	b := grid.Box{X0: 2, X1: 9, Y0: 2, Y1: 9}
	offGrid := Observation{X: 3, Y: 3, OffsetX: 0.25, OffsetY: 0.75, Value: 2, Variance: 0.5}
	onGrid := Observation{X: 4, Y: 5, Value: 1, Variance: 0.5}
	dst := make([]float64, 16)
	if n := testing.AllocsPerRun(100, func() {
		if !ObsInBox(offGrid, b) || !ObsInBox(onGrid, b) {
			t.Fatal("observation inside the box rejected")
		}
		CenteredPerturbationsInto(dst, offGrid, 9)
	}); n != 0 {
		t.Errorf("ObsInBox + CenteredPerturbationsInto allocate %v objects", n)
	}
	for k, v := range CenteredPerturbations(offGrid, len(dst), 9) {
		if v != dst[k] {
			t.Fatalf("member %d: CenteredPerturbationsInto %v, CenteredPerturbations %v", k, dst[k], v)
		}
	}
	pts, n := offGrid.SupportPoints()
	sup := offGrid.Support()
	if n != 4 || len(sup) != 4 {
		t.Fatalf("off-grid support has %d / %d points, want 4", n, len(sup))
	}
	for i := range sup {
		if pts[i] != sup[i] {
			t.Errorf("support point %d: %v vs %v", i, pts[i], sup[i])
		}
	}
	if pts[0].Y != offGrid.Y {
		t.Errorf("first support point is on row %d, want the base row %d", pts[0].Y, offGrid.Y)
	}
}
