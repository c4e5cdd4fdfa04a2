package model

import (
	"math"
	"testing"
	"testing/quick"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/workload"
)

func testMesh(t *testing.T) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomField(m grid.Mesh, seed uint64) []float64 {
	s := linalg.NewStream(seed)
	f := make([]float64, m.Points())
	for i := range f {
		f[i] = s.Norm()
	}
	return f
}

func TestNewValidatesStability(t *testing.T) {
	m := testMesh(t)
	if _, err := New(m, 0.5, 0.4, 0.1, 1.0); err != nil {
		t.Errorf("stable parameters rejected: %v", err)
	}
	cases := []struct {
		cx, cy, nu, dt float64
	}{
		{2, 0, 0, 1},      // CFL violation
		{0.6, 0.6, 0, 1},  // combined CFL violation
		{0, 0, 0.3, 1},    // diffusion violation
		{0, 0, 0.1, -1},   // negative dt
		{0, 0, -0.1, 0.5}, // negative nu
	}
	for _, c := range cases {
		if _, err := New(m, c.cx, c.cy, c.nu, c.dt); err == nil {
			t.Errorf("unstable parameters accepted: %+v", c)
		}
	}
	if _, err := New(grid.Mesh{}, 0, 0, 0, 1); err == nil {
		t.Error("invalid mesh accepted")
	}
}

func TestPureAdvectionAtCFLOneIsExactShift(t *testing.T) {
	// First-order upwind with CFL exactly 1 translates the field by one
	// cell per step with no numerical diffusion.
	m := testMesh(t)
	a, err := New(m, 1, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 1)
	got, err := a.Run(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			src := f[m.Index(((x-3)%m.NX+m.NX)%m.NX, y)]
			if math.Abs(got[m.Index(x, y)]-src) > 1e-12 {
				t.Fatalf("advection shift wrong at (%d,%d)", x, y)
			}
		}
	}
}

func TestNegativeVelocityShiftsBackwards(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0, -1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 2)
	got, err := a.Run(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			src := f[m.Index(x, (y+2)%m.NY)]
			if math.Abs(got[m.Index(x, y)]-src) > 1e-12 {
				t.Fatalf("backward advection wrong at (%d,%d)", x, y)
			}
		}
	}
}

// Mass returns the field sum — conserved exactly by the scheme on the
// doubly periodic mesh, a property the tests pin.
func Mass(field []float64) float64 {
	var s float64
	for _, v := range field {
		s += v
	}
	return s
}

func TestMassConservation(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.4, 0.3, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 3)
	before := Mass(f)
	got, err := a.Run(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if after := Mass(got); math.Abs(after-before) > 1e-9*math.Abs(before)+1e-9 {
		t.Errorf("mass not conserved: %g -> %g", before, after)
	}
}

func TestDiffusionReducesVariance(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0, 0, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 4)
	variance := func(f []float64) float64 {
		mean := Mass(f) / float64(len(f))
		var s float64
		for _, v := range f {
			s += (v - mean) * (v - mean)
		}
		return s
	}
	before := variance(f)
	got, err := a.Run(f, 20)
	if err != nil {
		t.Fatal(err)
	}
	if after := variance(got); !(after < before/2) {
		t.Errorf("diffusion barely reduced variance: %g -> %g", before, after)
	}
}

func TestMaxPrincipleForDiffusion(t *testing.T) {
	// Pure diffusion never creates new extrema.
	m := testMesh(t)
	a, err := New(m, 0, 0, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 5)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range f {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	got, err := a.Run(f, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("max principle violated at %d: %g outside [%g, %g]", i, v, lo, hi)
		}
	}
}

func TestRunDoesNotModifyInput(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.3, 0.2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 6)
	orig := append([]float64(nil), f...)
	if _, err := a.Run(f, 7); err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if f[i] != orig[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

func TestRunZeroStepsIsIdentity(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.3, 0.2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 7)
	got, err := a.Run(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if got[i] != f[i] {
			t.Fatal("zero steps changed the field")
		}
	}
	if _, err := a.Run(f, -1); err == nil {
		t.Error("negative steps accepted")
	}
}

func TestConsecutiveRunsCompose(t *testing.T) {
	// Run(f, 5) == Run(Run(f, 2), 3): the scratch-buffer reuse must not
	// leak state between calls.
	m := testMesh(t)
	a, err := New(m, 0.3, 0.1, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := randomField(m, 8)
	direct, err := a.Run(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	part, err := a.Run(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := a.Run(part, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(direct[i]-composed[i]) > 1e-14 {
			t.Fatalf("runs do not compose at %d: %g vs %g", i, direct[i], composed[i])
		}
	}
}

// An ensemble advanced member by member through RunInto, with one dst and
// one scratch reused from member to member and dirty from the start, gives
// each member's own Run: nothing a member leaves in the buffers reaches the
// next.
func TestRunEnsemble(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.2, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, 9)
	members, err := workload.Ensemble(m, truth, 4, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	dst, scratch := make([]float64, m.Points()), make([]float64, m.Points())
	for i := range dst {
		dst[i], scratch[i] = math.NaN(), math.Inf(1)
	}
	for _, steps := range []int{4, 5} {
		for k := range members {
			if err := a.RunInto(dst, scratch, members[k], steps); err != nil {
				t.Fatal(err)
			}
			single, err := a.Run(members[k], steps)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(dst, single); i >= 0 {
				t.Fatalf("%d steps: member %d differs from its own run at %d", steps, k, i)
			}
		}
	}
}

func TestStepFieldLengthValidation(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.2, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(nil, make([]float64, 5)); err == nil {
		t.Error("short field accepted")
	}
	if _, err := a.Step(make([]float64, 5), make([]float64, m.Points())); err == nil {
		t.Error("short dst accepted")
	}
}

func TestQuickMassConservedForAnyStableParams(t *testing.T) {
	m, _ := grid.NewMesh(12, 8)
	f := func(cxr, cyr, nur uint8, seed uint64) bool {
		cx := float64(cxr%100)/100 - 0.5 // [-0.5, 0.5)
		cy := float64(cyr%100)/200 - 0.25
		nu := float64(nur%100) / 500 // [0, 0.2)
		a, err := New(m, cx, cy, nu, 1)
		if err != nil {
			return false
		}
		field := randomField(m, seed)
		before := Mass(field)
		got, err := a.Run(field, 10)
		if err != nil {
			return false
		}
		return math.Abs(Mass(got)-before) < 1e-8*(math.Abs(before)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
