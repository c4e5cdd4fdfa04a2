package linalg

import (
	"fmt"
	"math"
)

// SymmetricEigen computes the full eigendecomposition of a symmetric matrix
// a = Q·diag(vals)·Qᵀ using the cyclic Jacobi method. Eigenvalues are
// returned in ascending order with the matching eigenvectors as the columns
// of Q. Only the symmetric part of a is used. Jacobi is slow for huge
// matrices but robust and ideal for the N×N ensemble-space systems of the
// deterministic (ETKF) solver, with N at most a few hundred.
func SymmetricEigen(a *Matrix) ([]float64, *Matrix, error) {
	ws := new(EigenScratch)
	if err := ws.eigen(a); err != nil {
		return nil, nil, err
	}
	return ws.vals, &ws.q, nil
}

// EigenScratch holds the buffers SymmetricFuncInto reuses from call to call,
// whatever the matrix size. The zero value is ready to use.
type EigenScratch struct {
	w, q     Matrix // the rotated copy of a and the accumulated eigenvectors
	vals, fv []float64
}

// eigen is SymmetricEigen working in ws: eigenvalues land in ws.vals, the
// eigenvectors in the columns of ws.q.
func (ws *EigenScratch) eigen(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: SymmetricEigen needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	// Work on the symmetrized copy.
	w := ws.w.Reset(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	q := ws.q.Reset(n, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += w.At(i, j) * w.At(i, j)
			}
		}
		return s
	}
	norm := 0.0
	for _, v := range w.Data {
		norm += v * v
	}
	tol := 1e-30 * (norm + 1)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for r := p + 1; r < n; r++ {
				apq := w.At(p, r)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(r, r)
				// Stable rotation angle (Golub & Van Loan).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation to rows/columns p and r of w.
				for k := 0; k < n; k++ {
					akp := w.At(k, p)
					akq := w.At(k, r)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, r, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := w.At(p, k)
					aqk := w.At(r, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(r, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					qkp := q.At(k, p)
					qkq := q.At(k, r)
					q.Set(k, p, c*qkp-s*qkq)
					q.Set(k, r, s*qkp+c*qkq)
				}
			}
		}
	}
	if offDiag() > 1e-10*(norm+1) {
		return fmt.Errorf("linalg: Jacobi did not converge (off-diagonal %g)", offDiag())
	}
	ws.vals = growFloats(ws.vals, n)
	vals := ws.vals
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs ascending (insertion sort over columns).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			for k := 0; k < n; k++ {
				v1 := q.At(k, j)
				v2 := q.At(k, j-1)
				q.Set(k, j, v2)
				q.Set(k, j-1, v1)
			}
		}
	}
	return nil
}

// SymmetricFunc applies the scalar function f to a symmetric matrix through
// its eigendecomposition: f(A) = Q·f(Λ)·Qᵀ. f must be defined on every
// eigenvalue of a.
func SymmetricFunc(a *Matrix, f func(float64) (float64, error)) (*Matrix, error) {
	out := new(Matrix)
	if err := SymmetricFuncInto(out, a, f, new(EigenScratch)); err != nil {
		return nil, err
	}
	return out, nil
}

// SymmetricFuncInto is SymmetricFunc writing f(A) into out (reshaped to
// n × n, and not aliasing a) and working in ws.
func SymmetricFuncInto(out, a *Matrix, f func(float64) (float64, error), ws *EigenScratch) error {
	if err := ws.eigen(a); err != nil {
		return err
	}
	n := a.Rows
	ws.fv = growFloats(ws.fv, n)
	fv, q := ws.fv, &ws.q
	for i, v := range ws.vals {
		var err error
		if fv[i], err = f(v); err != nil {
			return fmt.Errorf("linalg: SymmetricFunc at eigenvalue %g: %w", v, err)
		}
	}
	// Q·diag(fv)·Qᵀ without forming intermediates.
	out.Reset(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += q.At(i, k) * fv[k] * q.At(j, k)
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return nil
}
