package linalg

import (
	"fmt"
	"math"
)

// ModifiedCholeskyPrecision estimates the inverse covariance matrix B̂⁻¹ of
// the rows of the sample matrix U ∈ ℝ^{n×N} (n variables, N samples, rows
// already centred) using the modified Cholesky decomposition of Bickel &
// Levina, the estimator at the heart of P-EnKF (refs [23, 24] of the paper).
//
// Each variable i is regressed on its predecessors i-band … i-1 in the given
// ordering:
//
//	u_i = Σ_{j∈pred(i)} t_{ij} · u_j + ε_i,   Var(ε_i) = d_i
//
// giving B̂⁻¹ = (I − T)ᵀ D⁻¹ (I − T) with unit-lower-triangular-like
// (I − T) banded by `band`. The result is symmetric positive definite by
// construction whenever every residual variance is positive; `ridge` is
// added to each regression normal matrix for numerical robustness.
func ModifiedCholeskyPrecision(u *Matrix, band int, ridge float64) (*Matrix, error) {
	inv := new(Matrix)
	if err := ModifiedCholeskyPrecisionInto(inv, u, band, ridge, new(ModCholScratch)); err != nil {
		return nil, err
	}
	return inv, nil
}

// ModCholScratch holds the buffers ModifiedCholeskyPrecisionInto reuses from
// call to call, whatever the problem size. The zero value is ready to use.
type ModCholScratch struct {
	coeff    Matrix // row i: regression coefficients t_i over i's predecessor window
	g        Matrix // normal matrix of one regression
	d, resid []float64
}

// ModifiedCholeskyPrecisionInto is ModifiedCholeskyPrecision writing B̂⁻¹
// into inv (reshaped to n × n) and working in w.
func ModifiedCholeskyPrecisionInto(inv, u *Matrix, band int, ridge float64, w *ModCholScratch) error {
	n, samples := u.Rows, u.Cols
	if samples < 2 {
		return fmt.Errorf("linalg: modified Cholesky needs at least 2 samples, got %d", samples)
	}
	if band < 0 {
		return fmt.Errorf("linalg: negative band %d", band)
	}
	denom := float64(samples - 1)

	// Variable i's window starts at lo(i); its coefficients t_i sit at the
	// head of row i of coeff and its residual variance in d[i].
	lo := func(i int) int { return max(i-band, 0) }
	coeff := w.coeff.Reset(n, band)
	w.d = growFloats(w.d, n)
	w.resid = growFloats(w.resid, samples)
	d, resid := w.d, w.resid
	for i := 0; i < n; i++ {
		p := i - lo(i)
		ui := u.Row(i)
		if p == 0 {
			v := Dot(ui, ui) / denom
			if v <= 0 {
				v = ridge
				if v <= 0 {
					return fmt.Errorf("linalg: zero variance at variable %d", i)
				}
			}
			d[i] = v
			continue
		}
		// Normal equations G·t = g over the predecessor window, solved in
		// place: t overwrites the right-hand side.
		g := w.g.Reset(p, p)
		t := coeff.Row(i)[:p]
		for a := 0; a < p; a++ {
			ua := u.Row(lo(i) + a)
			t[a] = Dot(ua, ui) / denom
			for b := a; b < p; b++ {
				v := Dot(ua, u.Row(lo(i)+b)) / denom
				g.Set(a, b, v)
				g.Set(b, a, v)
			}
			g.Data[a*p+a] += ridge
		}
		err := CholeskyInPlace(g)
		if err == nil {
			err = CholSolveInPlace(g, &Matrix{Rows: p, Cols: 1, Data: t})
		}
		if err != nil {
			return fmt.Errorf("linalg: regression for variable %d: %w", i, err)
		}
		copy(resid, ui)
		for a := 0; a < p; a++ {
			ua := u.Row(lo(i) + a)
			ta := t[a]
			for s := 0; s < samples; s++ {
				resid[s] -= ta * ua[s]
			}
		}
		v := Dot(resid, resid)/denom + ridge
		if v <= 0 || math.IsNaN(v) {
			return fmt.Errorf("linalg: non-positive residual variance %g at variable %d", v, i)
		}
		d[i] = v
	}

	// B̂⁻¹ = Wᵀ D⁻¹ W with W = I − T (row i has 1 at i and −t over window).
	// W is banded, so accumulate only overlapping windows.
	inv.Reset(n, n)
	wrow := func(i, j int) float64 {
		if j == i {
			return 1
		}
		return -coeff.Data[i*band+j-lo(i)]
	}
	for k := 0; k < n; k++ {
		dk := 1 / d[k]
		// Non-zero columns of W row k: [lo(k), k].
		for a := lo(k); a <= k; a++ {
			wa := wrow(k, a)
			if wa == 0 {
				continue
			}
			for b := a; b <= k; b++ {
				wb := wrow(k, b)
				if wb == 0 {
					continue
				}
				inv.Data[a*n+b] += wa * dk * wb
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			inv.Set(i, j, inv.At(j, i))
		}
	}
	return nil
}

// growFloats returns s resized to n elements, reallocating only when its
// capacity is too small. The contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CenterRows subtracts the mean of every row in place and returns the means.
func CenterRows(u *Matrix) []float64 {
	means := make([]float64, u.Rows)
	inv := 1 / float64(u.Cols)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		var m float64
		for _, v := range row {
			m += v
		}
		m *= inv
		for j := range row {
			row[j] -= m
		}
		means[i] = m
	}
	return means
}

// GaspariCohn evaluates the Gaspari–Cohn fifth-order piecewise-rational
// compactly supported correlation function at normalized distance z = d/c,
// where c is the localization length. It is 1 at z=0 and 0 for z ≥ 2.
// This implements the covariance-localization alternative of §2.2.
func GaspariCohn(z float64) float64 {
	z = math.Abs(z)
	switch {
	case z >= 2:
		return 0
	case z >= 1:
		return ((((z/12-0.5)*z+0.625)*z+5.0/3.0)*z-5)*z + 4 - 2.0/(3.0*z)
	default:
		return (((-0.25*z+0.5)*z+0.625)*z-5.0/3.0)*z*z + 1
	}
}
