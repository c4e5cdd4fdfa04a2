// Package linalg provides the small dense linear algebra kernels the
// ensemble Kalman filter needs: matrix products, Cholesky factorization and
// solves, a symmetric eigensolver, and the modified Cholesky decomposition
// (Bickel–Levina style banded regression) that P-EnKF uses to estimate the
// inverse background error covariance B̂⁻¹ (§2.3 of the paper, refs [23, 24]).
//
// Everything is implemented on top of the standard library only. Matrices
// are small in this application — local analyses work with matrices of
// dimension at most a few hundred — so the kernels favour clarity and
// numerical robustness over cache blocking. The kernels the local analysis
// runs once per grid point (Cholesky, the triangular solves, the modified
// Cholesky estimate, SymmetricFunc) exist in an in-place form that works in
// caller-owned storage; the allocating functions of the same name are thin
// wrappers over those loops, so both forms round identically.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r × c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

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

// Reset reshapes m to a zeroed r × c matrix, reusing its storage when that is
// large enough, and returns m. The zero Matrix is a valid receiver.
func (m *Matrix) Reset(r, c int) *Matrix {
	m.Rows, m.Cols = r, c
	if n := r * c; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
		clear(m.Data)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	// ikj loop order: stream through b row-wise for locality.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
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

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AAT returns a·aᵀ (symmetric Gram matrix) without forming the transpose.
func AAT(a *Matrix) *Matrix {
	out := NewMatrix(a.Rows, a.Rows)
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		for j := i; j < a.Rows; j++ {
			s := Dot(ri, a.Row(j))
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}

// Identity returns the n × n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// AddDiagonal adds d[i] to element (i, i) in place.
func (m *Matrix) AddDiagonal(d []float64) error {
	if m.Rows != m.Cols || m.Rows != len(d) {
		return fmt.Errorf("linalg: AddDiagonal needs square matrix matching diagonal, got %dx%d and %d", m.Rows, m.Cols, len(d))
	}
	for i, v := range d {
		m.Data[i*m.Cols+i] += v
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shape matrices; useful in tests.
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

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not a
// positive finite number.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with a = L·Lᵀ.
// a must be symmetric positive definite; only its lower triangle is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := a.Clone()
	if err := CholeskyInPlace(l); err != nil {
		return nil, err
	}
	for i := 0; i < l.Rows; i++ {
		clear(l.Row(i)[i+1:])
	}
	return l, nil
}

// CholeskyInPlace overwrites the lower triangle of a with its Cholesky
// factor. The strict upper triangle is neither read nor written, and no
// consumer of the factor in this package reads it.
func CholeskyInPlace(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := a.Row(j)
		d := lj[j]
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if !(d > 0) || math.IsInf(d, 1) {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		for i := j + 1; i < n; i++ {
			li := a.Row(i)
			s := li[j]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / dj
		}
	}
	return nil
}

// SolveLowerInPlace overwrites every column of b with the solution of
// L·x = b for lower-triangular L (forward substitution). It sweeps b row by
// row, so each element sees exactly the operations of a column-at-a-time
// solve, in the same order.
func SolveLowerInPlace(l, b *Matrix) error {
	n := l.Rows
	if l.Cols != n || b.Rows != n {
		return fmt.Errorf("linalg: SolveLower shape mismatch %dx%d, b=%d", l.Rows, l.Cols, b.Rows)
	}
	for i := 0; i < n; i++ {
		li, bi := l.Row(i), b.Row(i)
		for k := 0; k < i; k++ {
			lik, bk := li[k], b.Row(k)[:len(bi)]
			for j := range bi {
				bi[j] -= lik * bk[j]
			}
		}
		if li[i] == 0 {
			return fmt.Errorf("linalg: singular triangular system at row %d", i)
		}
		for j := range bi {
			bi[j] /= li[i]
		}
	}
	return nil
}

// SolveUpperFromLowerInPlace overwrites every column of b with the solution
// of Lᵀ·x = b given lower-triangular L (back substitution on the implicit
// transpose), row by row like SolveLowerInPlace.
func SolveUpperFromLowerInPlace(l, b *Matrix) error {
	n := l.Rows
	if l.Cols != n || b.Rows != n {
		return fmt.Errorf("linalg: SolveUpper shape mismatch %dx%d, b=%d", l.Rows, l.Cols, b.Rows)
	}
	for i := n - 1; i >= 0; i-- {
		bi := b.Row(i)
		for k := i + 1; k < n; k++ {
			lki, bk := l.Data[k*n+i], b.Row(k)[:len(bi)]
			for j := range bi {
				bi[j] -= lki * bk[j]
			}
		}
		d := l.Data[i*n+i]
		if d == 0 {
			return fmt.Errorf("linalg: singular triangular system at row %d", i)
		}
		for j := range bi {
			bi[j] /= d
		}
	}
	return nil
}

// CholSolveInPlace overwrites B with the solution of a·X = B given the
// Cholesky factor L of a.
func CholSolveInPlace(l, b *Matrix) error {
	if err := SolveLowerInPlace(l, b); err != nil {
		return err
	}
	return SolveUpperFromLowerInPlace(l, b)
}

// CholSolveVecInPlace overwrites b with the solution of a·x = b given the
// Cholesky factor L of a: CholSolveInPlace for one right-hand side, by the
// same operations in the same order.
func CholSolveVecInPlace(l *Matrix, b []float64) error {
	if err := solveLowerVec(l, b); err != nil {
		return err
	}
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
	return nil
}

// solveLowerVec is SolveLowerInPlace for one right-hand side.
func solveLowerVec(l *Matrix, b []float64) error {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return fmt.Errorf("linalg: SolveLower shape mismatch %dx%d, b=%d", l.Rows, l.Cols, len(b))
	}
	for i, s := range b {
		li := l.Row(i)
		for k, lik := range li[:i] {
			s -= lik * b[k]
		}
		if li[i] == 0 {
			return fmt.Errorf("linalg: singular triangular system at row %d", i)
		}
		b[i] = s / li[i]
	}
	return nil
}

// solveVec runs an in-place vector solver on a copy of b.
func solveVec(solve func(l *Matrix, b []float64) error, l *Matrix, b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := solve(l, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLower solves L·x = b for lower-triangular L (forward substitution).
func SolveLower(l *Matrix, b []float64) ([]float64, error) {
	return solveVec(solveLowerVec, l, b)
}

// CholSolve solves a·x = b given the Cholesky factor L of a.
func CholSolve(l *Matrix, b []float64) ([]float64, error) {
	return solveVec(CholSolveVecInPlace, l, b)
}

// CholSolveMatrix solves a·X = B given the Cholesky factor.
func CholSolveMatrix(l, bm *Matrix) (*Matrix, error) {
	out := bm.Clone()
	if err := CholSolveInPlace(l, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Solve solves a·x = b for symmetric positive definite a.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, b)
}
