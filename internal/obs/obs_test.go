package obs

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"senkf/internal/grid"
)

func testMesh(t *testing.T, nx, ny int) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func flatTruth(m grid.Mesh, v float64) []float64 {
	f := make([]float64, m.Points())
	for i := range f {
		f[i] = v
	}
	return f
}

func TestNewNetworkValidation(t *testing.T) {
	m := testMesh(t, 4, 4)
	nan, inf := math.NaN(), math.Inf(1)
	good := Observation{X: 1, Y: 1, OffsetX: 0.5, Value: 2, Variance: 1}
	for _, tc := range []struct {
		name string
		bad  Observation
		want string // what the error must mention besides the observation index
	}{
		{"out of mesh", Observation{X: 4, Y: 0, Variance: 1}, "outside 4x4 mesh"},
		{"zero variance", Observation{X: 0, Y: 0, Variance: 0}, "variance"},
		{"negative variance", Observation{X: 0, Y: 0, Variance: -1}, "variance"},
		{"NaN offset x", Observation{X: 1, Y: 1, OffsetX: nan, Variance: 1}, "offsets"},
		{"NaN offset y", Observation{X: 1, Y: 1, OffsetY: nan, Variance: 1}, "offsets"},
		{"NaN variance", Observation{X: 1, Y: 1, Variance: nan}, "variance"},
		{"infinite variance", Observation{X: 1, Y: 1, Variance: inf}, "variance"},
		{"NaN value", Observation{X: 1, Y: 1, Value: nan, Variance: 1}, "value"},
		{"infinite value", Observation{X: 1, Y: 1, Value: -inf, Variance: 1}, "value"},
	} {
		// The bad observation goes second, so the error must name index 1.
		_, err := NewNetwork(m, []Observation{good, tc.bad})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "observation 1 ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not name observation 1 and %q", tc.name, msg, tc.want)
		}
	}
	if _, err := NewNetwork(m, []Observation{good}); err != nil {
		t.Errorf("valid observation rejected: %v", err)
	}
}

func TestNewNetworkSortsRowMajor(t *testing.T) {
	m := testMesh(t, 4, 4)
	n, err := NewNetwork(m, []Observation{
		{X: 3, Y: 2, Variance: 1}, {X: 0, Y: 0, Variance: 1}, {X: 1, Y: 0, Variance: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Obs[0].Y != 0 || n.Obs[0].X != 0 || n.Obs[1].X != 1 || n.Obs[2].Y != 2 {
		t.Errorf("observations not sorted: %+v", n.Obs)
	}
}

func TestStridedNetworkGeometry(t *testing.T) {
	m := testMesh(t, 8, 6)
	n, err := StridedNetwork(m, flatTruth(m, 0), 2, 3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 4*2 {
		t.Errorf("strided network has %d obs, want 8", n.Len())
	}
	for _, o := range n.Obs {
		if o.X%2 != 0 || o.Y%3 != 0 {
			t.Errorf("observation off stride: (%d,%d)", o.X, o.Y)
		}
		if o.Variance != 0.5 {
			t.Errorf("variance %g, want 0.5", o.Variance)
		}
	}
}

func TestStridedNetworkErrors(t *testing.T) {
	m := testMesh(t, 4, 4)
	truth := flatTruth(m, 0)
	if _, err := StridedNetwork(m, truth, 0, 1, 1, 1); err == nil {
		t.Error("expected stride error")
	}
	if _, err := StridedNetwork(m, truth[:3], 1, 1, 1, 1); err == nil {
		t.Error("expected truth-length error")
	}
	if _, err := StridedNetwork(m, truth, 1, 1, -1, 1); err == nil {
		t.Error("expected variance error")
	}
}

func TestStridedNetworkDeterministic(t *testing.T) {
	m := testMesh(t, 10, 10)
	truth := flatTruth(m, 3)
	a, err := StridedNetwork(m, truth, 2, 2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StridedNetwork(m, truth, 2, 2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("networks with same seed differ at %d", i)
		}
	}
	c, _ := StridedNetwork(m, truth, 2, 2, 1, 43)
	same := true
	for i := range a.Obs {
		if a.Obs[i].Value != c.Obs[i].Value {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestRandomNetworkDistinctPoints(t *testing.T) {
	m := testMesh(t, 6, 6)
	n, err := RandomNetwork(m, flatTruth(m, 1), 20, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 20 {
		t.Fatalf("random network has %d obs, want 20", n.Len())
	}
	seen := map[[2]int]bool{}
	for _, o := range n.Obs {
		k := [2]int{o.X, o.Y}
		if seen[k] {
			t.Fatalf("duplicate observation point (%d,%d)", o.X, o.Y)
		}
		seen[k] = true
	}
	if _, err := RandomNetwork(m, flatTruth(m, 1), 37, 1, 7); err == nil {
		t.Error("expected count out of range error")
	}
}

func TestInBoxRestriction(t *testing.T) {
	m := testMesh(t, 8, 8)
	n, err := StridedNetwork(m, flatTruth(m, 0), 1, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.Box{X0: 2, X1: 5, Y0: 3, Y1: 6}
	sub := n.InBox(b)
	if len(sub) != b.Points() {
		t.Fatalf("InBox returned %d obs, want %d", len(sub), b.Points())
	}
	for _, o := range sub {
		if !b.Contains(o.X, o.Y) {
			t.Fatalf("observation (%d,%d) outside box", o.X, o.Y)
		}
	}
}

func TestPerturbedIndependentOfLayout(t *testing.T) {
	o := Observation{X: 3, Y: 5, Value: 1.5, Variance: 0.25}
	// Perturbation depends only on (seed, x, y, member).
	if Perturbed(o, 2, 9) != Perturbed(o, 2, 9) {
		t.Error("Perturbed not deterministic")
	}
	if Perturbed(o, 2, 9) == Perturbed(o, 3, 9) {
		t.Error("different members should have different perturbations")
	}
	if Perturbed(o, 2, 9) == Perturbed(o, 2, 10) {
		t.Error("different seeds should have different perturbations")
	}
}

func TestPerturbedMatrixShapeAndConsistency(t *testing.T) {
	m := testMesh(t, 5, 5)
	n, err := StridedNetwork(m, flatTruth(m, 2), 2, 2, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	ys := PerturbedMatrix(n.Obs, 4, 11)
	if ys.Rows != n.Len() || ys.Cols != 4 {
		t.Fatalf("Yˢ shape %dx%d", ys.Rows, ys.Cols)
	}
	for i, o := range n.Obs {
		for k := 0; k < 4; k++ {
			if ys.At(i, k) != Perturbed(o, k, 11) {
				t.Fatalf("matrix entry (%d,%d) disagrees with Perturbed", i, k)
			}
		}
	}
}

func TestPerturbationStatistics(t *testing.T) {
	o := Observation{X: 1, Y: 1, Value: 10, Variance: 4}
	n := 50000
	var sum, sum2 float64
	for k := 0; k < n; k++ {
		v := Perturbed(o, k, 5) - o.Value
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("perturbation mean %g, want ~0", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("perturbation variance %g, want ~4", variance)
	}
}

func TestApplyHSelectsStateValues(t *testing.T) {
	b := grid.Box{X0: 1, X1: 5, Y0: 2, Y1: 5}
	state := make([]float64, b.Points())
	for i := range state {
		state[i] = float64(i)
	}
	obs := []Observation{{X: 1, Y: 2, Variance: 1}, {X: 4, Y: 4, Variance: 1}}
	got, err := ApplyH(obs, b, state)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("H obs0 = %g, want 0", got[0])
	}
	want := float64((4-2)*b.Width() + (4 - 1))
	if got[1] != want {
		t.Errorf("H obs1 = %g, want %g", got[1], want)
	}
	if _, err := ApplyH(obs, b, state[:3]); err == nil {
		t.Error("expected state-length error")
	}
	outside := []Observation{{X: 0, Y: 0, Variance: 1}}
	if _, err := ApplyH(outside, b, state); err == nil {
		t.Error("expected outside-box error")
	}
}

func TestQuickInBoxNeverReturnsOutsiders(t *testing.T) {
	m, _ := grid.NewMesh(16, 16)
	truth := make([]float64, m.Points())
	n, err := StridedNetwork(m, truth, 2, 2, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0, y0, w, h uint8) bool {
		b := grid.Box{X0: int(x0 % 16), Y0: int(y0 % 16)}
		b.X1 = b.X0 + int(w%8)
		b.Y1 = b.Y0 + int(h%8)
		for _, o := range n.InBox(b) {
			if !b.Contains(o.X, o.Y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
