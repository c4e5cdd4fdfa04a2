package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// Helpers the tests share; nothing outside them calls these.

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// MatVec returns a·x as a fresh slice.
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("linalg: matvec shape mismatch %dx%d · %d", a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Identity returns the n × n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shape matrices.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("linalg: diff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m, nil
}

func randomMatrix(s *Stream, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}

// randomSPD builds A·Aᵀ + n·I which is comfortably positive definite.
func randomSPD(s *Stream, n int) *Matrix {
	a := randomMatrix(s, n, n+2)
	spd := AAT(a)
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += float64(n)
	}
	return spd
}

func TestMatMulAgainstHandComputed(t *testing.T) {
	a, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}})
	if d, _ := MaxAbsDiff(got, want); d > tol {
		t.Errorf("MatMul wrong by %g", d)
	}
}

func TestMatMulShapeMismatch(t *testing.T) {
	if _, err := MatMul(NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Error("expected shape error")
	}
}

func TestMatVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := MatVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MatVec = %v, want [6 15]", got)
	}
	if _, err := MatVec(a, []float64{1}); err == nil {
		t.Error("expected shape error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	s := NewStream(1)
	a := randomMatrix(s, 4, 7)
	tt := a.T().T()
	if d, _ := MaxAbsDiff(a, tt); d != 0 {
		t.Errorf("transpose not an involution, diff %g", d)
	}
}

func TestAATMatchesExplicit(t *testing.T) {
	s := NewStream(2)
	a := randomMatrix(s, 5, 3)
	explicit, err := MatMul(a, a.T())
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := MaxAbsDiff(AAT(a), explicit); d > tol {
		t.Errorf("AAT differs from A·Aᵀ by %g", d)
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	s := NewStream(4)
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(s, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec, err := MatMul(l, l.T())
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := MaxAbsDiff(a, rec); d > 1e-8*float64(n) {
			t.Errorf("n=%d: L·Lᵀ differs from A by %g", n, d)
		}
		// Lower triangular: upper strictly zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L not lower triangular at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("expected ErrNotPositiveDefinite")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("expected square-matrix error")
	}
}

func TestSolveResidual(t *testing.T) {
	s := NewStream(5)
	for _, n := range []int{1, 3, 10, 40} {
		a := randomSPD(s, n)
		x := s.NormVec(n)
		b, err := MatVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				t.Fatalf("n=%d: solution wrong at %d: %g vs %g", n, i, got[i], x[i])
			}
		}
	}
}

// The row-sweeping matrix solve must give every column exactly the bits of
// solving that column alone, and A·(A⁻¹) must be the identity.
func TestCholSolveMatrixColumnsAndInverse(t *testing.T) {
	s := NewStream(6)
	n := 8
	a := randomSPD(s, n)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := CholSolveMatrix(l, Identity(n))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MatMul(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := MaxAbsDiff(prod, Identity(n)); d > 1e-8 {
		t.Errorf("A·A⁻¹ differs from I by %g", d)
	}
	b := NewMatrix(n, 5)
	copy(b.Data, s.NormVec(n*5))
	x, err := CholSolveMatrix(l, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < b.Cols; j++ {
		col, err := CholSolve(l, b.T().Row(j))
		if err != nil {
			t.Fatal(err)
		}
		for i := range col {
			if col[i] != x.At(i, j) {
				t.Fatalf("column %d row %d: %g alone, %g in the matrix solve", j, i, col[i], x.At(i, j))
			}
		}
	}
	if _, err := CholSolveMatrix(l, NewMatrix(n+1, 2)); err == nil {
		t.Error("expected shape error")
	}
}

func TestTriangularSolves(t *testing.T) {
	l, _ := FromRows([][]float64{{2, 0, 0}, {1, 3, 0}, {4, 5, 6}})
	x := []float64{1, -2, 0.5}
	b, _ := MatVec(l, x)
	got, err := SolveLower(l, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > tol {
			t.Fatalf("SolveLower wrong at %d", i)
		}
	}
	bt, _ := MatVec(l.T(), x)
	col := &Matrix{Rows: len(bt), Cols: 1, Data: bt}
	if err := SolveUpperFromLowerInPlace(l, col); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(col.Data[i]-x[i]) > tol {
			t.Fatalf("SolveUpperFromLowerInPlace wrong at %d", i)
		}
	}
}

func TestSingularTriangular(t *testing.T) {
	l, _ := FromRows([][]float64{{1, 0}, {2, 0}})
	if _, err := SolveLower(l, []float64{1, 1}); err == nil {
		t.Error("expected singular error")
	}
	if err := SolveUpperFromLowerInPlace(l, &Matrix{Rows: 2, Cols: 1, Data: []float64{1, 1}}); err == nil {
		t.Error("expected singular error")
	}
}

func TestCenterRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {10, 20, 30}})
	means := CenterRows(m)
	if means[0] != 2 || means[1] != 20 {
		t.Errorf("means = %v", means)
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		if math.Abs(s) > tol {
			t.Errorf("row %d not centred, sum %g", i, s)
		}
	}
}

func TestSampleCovarianceMatchesDefinition(t *testing.T) {
	s := NewStream(7)
	u := randomMatrix(s, 4, 9)
	CenterRows(u)
	cov, err := SampleCovariance(u)
	if err != nil {
		t.Fatal(err)
	}
	explicit, _ := MatMul(u, u.T())
	explicit.Scale(1.0 / 8.0)
	if d, _ := MaxAbsDiff(cov, explicit); d > tol {
		t.Errorf("covariance differs by %g", d)
	}
	if _, err := SampleCovariance(NewMatrix(3, 1)); err == nil {
		t.Error("expected error for single sample")
	}
}

func TestAddDiagonal(t *testing.T) {
	m := Identity(3)
	if err := m.AddDiagonal([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 3, 4} {
		if m.At(i, i) != want {
			t.Errorf("diag[%d] = %g want %g", i, m.At(i, i), want)
		}
	}
	if err := m.AddDiagonal([]float64{1}); err == nil {
		t.Error("expected shape error")
	}
}

func TestQuickCholeskySolveRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		s := NewStream(seed)
		a := randomSPD(s, n)
		x := s.NormVec(n)
		b, err := MatVec(a, x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatMulAssociativityWithVector(t *testing.T) {
	// (A·B)·x == A·(B·x)
	f := func(seed uint64) bool {
		s := NewStream(seed)
		a := randomMatrix(s, 4, 5)
		b := randomMatrix(s, 5, 3)
		x := s.NormVec(3)
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		lhs, err := MatVec(ab, x)
		if err != nil {
			return false
		}
		bx, err := MatVec(b, x)
		if err != nil {
			return false
		}
		rhs, err := MatVec(a, bx)
		if err != nil {
			return false
		}
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected ragged error")
	}
}
