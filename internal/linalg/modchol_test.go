package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// SampleCovariance returns the sample covariance of the rows of U
// (rows already centred): U·Uᵀ/(N−1), Eq. (4) of the paper.
func SampleCovariance(u *Matrix) (*Matrix, error) {
	if u.Cols < 2 {
		return nil, fmt.Errorf("linalg: covariance needs at least 2 samples, got %d", u.Cols)
	}
	return AAT(u).Scale(1 / float64(u.Cols-1)), nil
}

// sampleFromAR1 draws N samples of an AR(1) process over n variables with
// coefficient phi, whose true precision matrix is tridiagonal — exactly the
// structure the modified Cholesky estimator with band=1 should recover.
func sampleFromAR1(s *Stream, n, samples int, phi float64) *Matrix {
	u := NewMatrix(n, samples)
	for k := 0; k < samples; k++ {
		prev := s.Norm()
		u.Set(0, k, prev)
		sd := math.Sqrt(1 - phi*phi)
		for i := 1; i < n; i++ {
			v := phi*prev + sd*s.Norm()
			u.Set(i, k, v)
			prev = v
		}
	}
	CenterRows(u)
	return u
}

func TestModifiedCholeskyIsSPD(t *testing.T) {
	s := NewStream(11)
	u := sampleFromAR1(s, 12, 200, 0.6)
	for _, band := range []int{0, 1, 3, 11} {
		inv, err := ModifiedCholeskyPrecision(u, band, 1e-8)
		if err != nil {
			t.Fatalf("band=%d: %v", band, err)
		}
		if _, err := Cholesky(inv); err != nil {
			t.Errorf("band=%d: estimate not SPD: %v", band, err)
		}
		// Symmetry.
		for i := 0; i < inv.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(inv.At(i, j)-inv.At(j, i)) > 1e-12 {
					t.Fatalf("band=%d: asymmetric at (%d,%d)", band, i, j)
				}
			}
		}
	}
}

func TestModifiedCholeskyFullBandMatchesInverseSampleCov(t *testing.T) {
	// With band ≥ n−1 and no ridge, (I−T)ᵀD⁻¹(I−T) is exactly the inverse
	// of the sample covariance (when it is invertible).
	s := NewStream(12)
	n, samples := 6, 300
	u := sampleFromAR1(s, n, samples, 0.4)
	inv, err := ModifiedCholeskyPrecision(u, n-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := SampleCovariance(u)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MatMul(inv, cov)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := MaxAbsDiff(prod, Identity(n)); d > 1e-6 {
		t.Errorf("full-band modified Cholesky is not the exact inverse: |B̂⁻¹·S − I| = %g", d)
	}
}

func TestModifiedCholeskyBandRecoversTridiagonalStructure(t *testing.T) {
	s := NewStream(13)
	n := 10
	u := sampleFromAR1(s, n, 4000, 0.7)
	inv, err := ModifiedCholeskyPrecision(u, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Off-tridiagonal entries must be exactly zero by construction
	// (band=1 regressions only couple adjacent variables).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i-1 || j > i+1 {
				if inv.At(i, j) != 0 {
					t.Fatalf("band=1 estimate non-zero outside tridiagonal at (%d,%d): %g", i, j, inv.At(i, j))
				}
			}
		}
	}
	// The AR(1) precision has known form: diag 1/(1-phi²) scaled pattern.
	// Check the sign pattern: negative off-diagonals for positive phi.
	for i := 0; i+1 < n; i++ {
		if inv.At(i, i+1) >= 0 {
			t.Errorf("expected negative off-diagonal at (%d,%d), got %g", i, i+1, inv.At(i, i+1))
		}
	}
}

func TestModifiedCholeskyErrors(t *testing.T) {
	u := NewMatrix(3, 1)
	if _, err := ModifiedCholeskyPrecision(u, 1, 0); err == nil {
		t.Error("expected error for a single sample")
	}
	u2 := NewMatrix(3, 5)
	if _, err := ModifiedCholeskyPrecision(u2, -1, 0); err == nil {
		t.Error("expected error for negative band")
	}
}

func TestGaspariCohnProperties(t *testing.T) {
	if g := GaspariCohn(0); math.Abs(g-1) > 1e-12 {
		t.Errorf("GC(0) = %g, want 1", g)
	}
	for _, z := range []float64{2, 2.5, 10} {
		if g := GaspariCohn(z); g != 0 {
			t.Errorf("GC(%g) = %g, want 0", z, g)
		}
	}
	// Monotone decreasing on [0, 2], continuous at z=1, and symmetric.
	prev := 1.0
	for z := 0.01; z <= 2.0; z += 0.01 {
		g := GaspariCohn(z)
		if g > prev+1e-9 {
			t.Fatalf("GC not monotone at z=%g: %g > %g", z, g, prev)
		}
		if g < -1e-12 {
			t.Fatalf("GC negative at z=%g: %g", z, g)
		}
		prev = g
	}
	if math.Abs(GaspariCohn(0.999)-GaspariCohn(1.001)) > 1e-2 {
		t.Error("GC discontinuous at z=1")
	}
	if GaspariCohn(-0.5) != GaspariCohn(0.5) {
		t.Error("GC not symmetric")
	}
}

func TestQuickModifiedCholeskySPD(t *testing.T) {
	f := func(seed uint64, nRaw, bandRaw uint8) bool {
		n := int(nRaw%8) + 2
		band := int(bandRaw) % n
		s := NewStream(seed)
		u := sampleFromAR1(s, n, 80, 0.5)
		inv, err := ModifiedCholeskyPrecision(u, band, 1e-8)
		if err != nil {
			return false
		}
		_, err = Cholesky(inv)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
