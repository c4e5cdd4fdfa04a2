package linalg

import (
	"errors"
	"math"
	"testing"
)

func sameMatrixBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data[i], v)
		}
	}
}

// The in-place kernels, run on scratch carried across problems of growing
// then shrinking size, must give the bits of the allocating functions (which
// start from fresh scratch every call) and stop allocating once warm.
func TestInPlaceKernelsReuseScratch(t *testing.T) {
	s := NewStream(21)
	var (
		mc       ModCholScratch
		eig      EigenScratch
		inv, out Matrix
	)
	sqrt := func(v float64) (float64, error) { return math.Sqrt(v), nil }
	for _, size := range []struct{ n, samples, band int }{{4, 6, 1}, {14, 30, 5}, {9, 12, 0}, {3, 40, 2}, {14, 30, 5}} {
		u := sampleFromAR1(s, size.n, size.samples, 0.5)
		want, err := ModifiedCholeskyPrecision(u, size.band, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if err := ModifiedCholeskyPrecisionInto(&inv, u, size.band, 1e-6, &mc); err != nil {
			t.Fatal(err)
		}
		sameMatrixBits(t, "ModifiedCholeskyPrecisionInto", &inv, want)

		a := randomSPD(s, size.n)
		wantF, err := SymmetricFunc(a, sqrt)
		if err != nil {
			t.Fatal(err)
		}
		if err := SymmetricFuncInto(&out, a, sqrt, &eig); err != nil {
			t.Fatal(err)
		}
		sameMatrixBits(t, "SymmetricFuncInto", &out, wantF)

		// Factor and solve in place against the allocating pair.
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := NewMatrix(size.n, 3)
		copy(b.Data, s.NormVec(len(b.Data)))
		wantX, err := CholSolveMatrix(l, b)
		if err != nil {
			t.Fatal(err)
		}
		f := a.Clone()
		if err := CholeskyInPlace(f); err != nil {
			t.Fatal(err)
		}
		if err := CholSolveInPlace(f, b); err != nil {
			t.Fatal(err)
		}
		sameMatrixBits(t, "CholSolveInPlace on the in-place factor", b, wantX)

		// One right-hand side: the vector solve is the matrix solve's column.
		col := &Matrix{Rows: size.n, Cols: 1, Data: s.NormVec(size.n)}
		vec := append([]float64(nil), col.Data...)
		if err := CholSolveInPlace(f, col); err != nil {
			t.Fatal(err)
		}
		if err := CholSolveVecInPlace(f, vec); err != nil {
			t.Fatal(err)
		}
		sameMatrixBits(t, "CholSolveVecInPlace", &Matrix{Rows: size.n, Cols: 1, Data: vec}, col)
	}
	if err := CholSolveVecInPlace(Identity(3), make([]float64, 2)); err == nil {
		t.Error("CholSolveVecInPlace accepted a right-hand side of the wrong length")
	}
	if err := CholSolveVecInPlace(NewMatrix(2, 2), make([]float64, 2)); err == nil {
		t.Error("CholSolveVecInPlace accepted a singular factor")
	}

	u := sampleFromAR1(s, 14, 30, 0.5)
	a := randomSPD(s, 14)
	if n := testing.AllocsPerRun(10, func() {
		if err := ModifiedCholeskyPrecisionInto(&inv, u, 5, 1e-6, &mc); err != nil {
			t.Fatal(err)
		}
		if err := SymmetricFuncInto(&out, a, sqrt, &eig); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm in-place kernels allocate %v objects per call", n)
	}
}

// A pivot that is not a positive finite number is not a factor's diagonal:
// +Inf used to pass and leave a factor of zeros and NaNs behind.
func TestCholeskyRejectsNonFinitePivots(t *testing.T) {
	inf, big := math.Inf(1), math.MaxFloat64
	for _, tc := range []struct {
		name string
		rows [][]float64
	}{
		{"+Inf diagonal", [][]float64{{inf}}},
		{"a diagonal that overflowed, after a finite pivot", [][]float64{{4, 2}, {2, big + big}}},
		{"update that overflows", [][]float64{{1e-300, 0}, {1e10, 1}}},
		{"NaN diagonal", [][]float64{{1, 0}, {0, math.NaN()}}},
		{"NaN off the diagonal", [][]float64{{1, 0}, {math.NaN(), 1}}},
		{"-0 diagonal", [][]float64{{math.Copysign(0, -1)}}},
		{"zero pivot", [][]float64{{1, 1}, {1, 1}}},
	} {
		a, err := FromRows(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := CholeskyInPlace(a); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Errorf("%s: CholeskyInPlace returned %v, want ErrNotPositiveDefinite", tc.name, err)
		}
	}
	ok, _ := FromRows([][]float64{{big / 4, 0}, {0, 1e-300}})
	if err := CholeskyInPlace(ok); err != nil {
		t.Errorf("extreme but finite pivots: %v", err)
	}
}

func TestMatrixReset(t *testing.T) {
	var m Matrix
	m.Reset(3, 4)
	for i := range m.Data {
		m.Data[i] = 7
	}
	backing := &m.Data[0]
	m.Reset(2, 5)
	if m.Rows != 2 || m.Cols != 5 || len(m.Data) != 10 || &m.Data[0] != backing {
		t.Fatalf("Reset(2,5) of a 3x4 matrix: %dx%d, %d elements, reallocated=%v", m.Rows, m.Cols, len(m.Data), &m.Data[0] != backing)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zeroed: %g", i, v)
		}
	}
	if m.Reset(5, 5); len(m.Data) != 25 {
		t.Fatalf("growing Reset gave %d elements", len(m.Data))
	}
}
