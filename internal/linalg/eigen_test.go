package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSymmetricEigenReconstructs(t *testing.T) {
	s := NewStream(21)
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSPD(s, n)
		vals, q, err := SymmetricEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct Q·Λ·Qᵀ.
		rec := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for k := 0; k < n; k++ {
					v += q.At(i, k) * vals[k] * q.At(j, k)
				}
				rec.Set(i, j, v)
			}
		}
		if d, _ := MaxAbsDiff(a, rec); d > 1e-8*float64(n) {
			t.Errorf("n=%d: reconstruction error %g", n, d)
		}
		// Ascending eigenvalues.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("n=%d: eigenvalues not ascending: %v", n, vals)
				break
			}
		}
		// Orthonormal eigenvectors.
		qtq, err := MatMul(q.T(), q)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := MaxAbsDiff(qtq, Identity(n)); d > 1e-9 {
			t.Errorf("n=%d: QᵀQ differs from I by %g", n, d)
		}
	}
}

func TestSymmetricEigenKnownValues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Errorf("eigenvalues %v, want [1 3]", vals)
	}
	if _, _, err := SymmetricEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 5)
	a.Set(1, 1, -2)
	a.Set(2, 2, 1)
	vals, _, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("vals = %v, want %v", vals, want)
		}
	}
}

func TestSymmetricFuncIdentity(t *testing.T) {
	s := NewStream(23)
	a := randomSPD(s, 6)
	same, err := SymmetricFunc(a, func(v float64) (float64, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := MaxAbsDiff(a, same); d > 1e-9 {
		t.Errorf("identity function changed the matrix by %g", d)
	}
}

func TestQuickEigenTraceAndOrthogonality(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		s := NewStream(seed)
		a := randomSPD(s, n)
		vals, q, err := SymmetricEigen(a)
		if err != nil {
			return false
		}
		// Trace is preserved.
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		if math.Abs(trace-sum) > 1e-8*(math.Abs(trace)+1) {
			return false
		}
		// Columns have unit norm.
		for j := 0; j < n; j++ {
			var nrm float64
			for i := 0; i < n; i++ {
				nrm += q.At(i, j) * q.At(i, j)
			}
			if math.Abs(nrm-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
