package enkf

import (
	"fmt"
	"math"

	"senkf/internal/linalg"
)

// solveETKF computes the deterministic ensemble transform analysis at the
// centre point (bg and uc are its rows of X and U) — the LETKF family of the paper's ref [25] (Ott et al.), a
// widely used alternative to the perturbed-observation update:
//
//	Ã   = (N−1)·I + Vᵀ·R⁻¹·V            (ensemble-space analysis precision)
//	w̄   = Ã⁻¹·Vᵀ·R⁻¹·(y − H·x̄ᵇ)          (mean weight vector)
//	W   = ((N−1)·Ã⁻¹)^{1/2}              (symmetric square root transform)
//	xᵃ_k = x̄ᵇ + u·w̄ + u·W_{·,k}
//
// with V = H·U the observation-space deviations. No observation
// perturbations are used, so the analysis is deterministic given the
// background and the observations; the symmetric square root preserves the
// zero-sum of deviations (1 is an eigenvector of Ã because V·1 = 0).
func (w *Workspace) solveETKF(c Config, bg, uc, out []float64) error {
	n := c.N
	denom := float64(n - 1)

	// Ã = (N−1)I + Vᵀ R⁻¹ V and rhs = Vᵀ R⁻¹ d, with V = H·U and the mean
	// innovation d = y − H·x̄ᵇ of the selected observations (the ETKF uses no
	// observation perturbations).
	at := w.a.Reset(n, n)
	for k := 0; k < n; k++ {
		at.Set(k, k, denom)
	}
	w.rhs = grow(w.rhs, n)
	rhs := w.rhs
	clear(rhs)
	for _, si := range w.sel {
		inv := 1 / si.effVar
		row := w.vrow(si.slot, n)
		for a := 0; a < n; a++ {
			va := inv * row[a]
			if va == 0 {
				continue
			}
			arow := at.Row(a)
			for b := a; b < n; b++ {
				arow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < a; b++ {
			at.Set(a, b, at.At(b, a))
		}
	}
	for _, si := range w.sel {
		s := w.obs[si.slot].value / si.effVar
		for k, vk := range w.vrow(si.slot, n) {
			rhs[k] += s * vk
		}
	}

	// w̄ = Ã⁻¹ rhs (Cholesky on a copy — Ã is SPD by construction, and the
	// transform below needs it intact).
	l := w.b.Reset(n, n)
	copy(l.Data, at.Data)
	err := linalg.CholeskyInPlace(l)
	if err == nil {
		err = linalg.CholSolveInPlace(l, &linalg.Matrix{Rows: n, Cols: 1, Data: rhs})
	}
	if err != nil {
		return fmt.Errorf("enkf: ETKF ensemble-space system: %w", err)
	}
	wbar := rhs

	// W = ((N−1)·Ã⁻¹)^{1/2} via the eigendecomposition of Ã.
	tr := &w.b
	err = linalg.SymmetricFuncInto(tr, at, func(lambda float64) (float64, error) {
		if lambda <= 0 {
			return 0, fmt.Errorf("non-positive eigenvalue %g", lambda)
		}
		return math.Sqrt(denom / lambda), nil
	}, &w.eig)
	if err != nil {
		return fmt.Errorf("enkf: ETKF transform: %w", err)
	}

	// xᵃ_k = x̄ᵇ + u_c·w̄ + u_c·W_{·,k} at the centre point.
	var xbar float64
	for _, v := range bg {
		xbar += v
	}
	xbar /= float64(n)
	meanInc := linalg.Dot(uc, wbar)
	for k := 0; k < n; k++ {
		var dev float64
		for j := 0; j < n; j++ {
			dev += uc[j] * tr.At(j, k)
		}
		out[k] = xbar + meanInc + dev
	}
	return nil
}
