package enkf

import (
	"math"
	"math/rand"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
)

// kalmanUpdate is the Kalman analysis of one box from first principles
// (the closed form of SNIPPETS 1's enkf_update and of EnKF-C's update).
// members[i][k] is member k at box point i, h is the m × p observation
// operator over the box, r the diagonal of R and y the observations. With
// the sample covariance P̂ = XXᵀ/(N−1) of the deviations X from the mean
// x̄, the gain K = P̂Hᵀ(HP̂Hᵀ + R)⁻¹ gives the analysis mean x̄ + K(y − Hx̄)
// and covariance (I − KH)P̂; it returns both at box point c, and P̂_cc.
func kalmanUpdate(members, h [][]float64, r, y []float64, c int) (mean, variance, prior float64) {
	p, n, m := len(members), len(members[0]), len(h)
	xbar := make([]float64, p)
	for i, row := range members {
		for _, v := range row {
			xbar[i] += v
		}
		xbar[i] /= float64(n)
	}
	cov := make([][]float64, p)
	for i := range cov {
		cov[i] = make([]float64, p)
		for j := range cov[i] {
			for k := 0; k < n; k++ {
				cov[i][j] += (members[i][k] - xbar[i]) * (members[j][k] - xbar[j])
			}
			cov[i][j] /= float64(n - 1)
		}
	}
	// hp = HP̂, s = HP̂Hᵀ + R and the innovation d = y − Hx̄.
	hp, s, d := make([][]float64, m), make([][]float64, m), make([]float64, m)
	for a := range h {
		hp[a] = make([]float64, p)
		d[a] = y[a]
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				hp[a][j] += h[a][i] * cov[i][j]
			}
			d[a] -= h[a][i] * xbar[i]
		}
	}
	for a := range h {
		s[a] = make([]float64, m)
		for b := range h {
			for i := 0; i < p; i++ {
				s[a][b] += hp[a][i] * h[b][i]
			}
		}
		s[a][a] += r[a]
	}
	// Kᵀ = S⁻¹HP̂, because S and P̂ are symmetric.
	kt := make([][]float64, m)
	for a := range kt {
		kt[a] = append([]float64(nil), hp[a]...)
	}
	gaussJordan(s, kt)
	mean, variance = xbar[c], cov[c][c]
	for a := 0; a < m; a++ {
		mean += kt[a][c] * d[a]
		variance -= kt[a][c] * hp[a][c] // [KHP̂]_cc
	}
	return mean, variance, cov[c][c]
}

// gaussJordan solves a·x = b for x by Gauss–Jordan elimination with partial
// pivoting, overwriting a, and b with x.
func gaussJordan(a, b [][]float64) {
	for col := range a {
		piv := col
		for r := col + 1; r < len(a); r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv], b[col], b[piv] = a[piv], a[col], b[piv], b[col]
		for r := range a {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for j := range a[r] {
				a[r][j] -= f * a[col][j]
			}
			for j := range b[r] {
				b[r][j] -= f * b[col][j]
			}
		}
	}
	for r := range b {
		for j := range b[r] {
			b[r][j] /= a[r][r]
		}
	}
}

// TestETKFIsTheKalmanUpdateOfItsBox checks the ETKF against the Kalman
// filter rather than against another copy of itself: at every point, the
// analysis members' mean and sample variance are the Kalman analysis mean
// and variance of the point's own local box, built from that box's sample
// covariance. Inputs are generated: N of 4, 16 and 64, networks of on-grid
// and of off-grid (bilinear) observations, local boxes from one point to
// 7 × 5, clipped where they meet the mesh edge; no taper, no inflation.
// An error is relative to the point's prior scale: the mean's to
// max(|x̄ᵃ|, √P̂_cc), the variance's to P̂_cc.
func TestETKFIsTheKalmanUpdateOfItsBox(t *testing.T) {
	mesh, err := grid.NewMesh(13, 11)
	if err != nil {
		t.Fatal(err)
	}
	full := grid.Box{X0: 0, X1: mesh.NX, Y0: 0, Y1: mesh.NY}
	const tol = 1e-10
	var checked, observed int
	for _, n := range []int{4, 16, 64} {
		for _, r := range []grid.Radius{{Xi: 0, Eta: 0}, {Xi: 1, Eta: 1}, {Xi: 2, Eta: 1}, {Xi: 3, Eta: 2}} {
			for _, offGrid := range []bool{false, true} {
				seed := int64(1000*n + 100*r.Xi + 10*r.Eta)
				if offGrid {
					seed++
				}
				rng := rand.New(rand.NewSource(seed))
				blk := NewBlock(full, n)
				for _, member := range blk.Data {
					for i := range member {
						member[i] = 2 + rng.NormFloat64()
					}
				}
				var cands []obs.Observation
				for _, idx := range rng.Perm(mesh.Points())[:40] {
					o := obs.Observation{X: idx % mesh.NX, Y: idx / mesh.NX, Value: 2 + rng.NormFloat64(), Variance: 0.1 + rng.Float64()}
					if offGrid {
						o.X, o.Y = min(o.X, mesh.NX-2), min(o.Y, mesh.NY-2)
						o.OffsetX, o.OffsetY = rng.Float64(), rng.Float64()
					}
					cands = append(cands, o)
				}
				c := Config{Mesh: mesh, Radius: r, N: n, Solver: SolverETKF}
				// Every point at N = 4; fewer as the N × N transform grows.
				for pt := 0; pt < mesh.Points(); pt += 1 + n/8 {
					x, y := pt%mesh.NX, pt/mesh.NX
					got, err := c.AnalyzePoint(blk, cands, x, y)
					if err != nil {
						t.Fatal(err)
					}
					var gotMean, gotVar float64
					for _, v := range got {
						gotMean += v
					}
					gotMean /= float64(n)
					for _, v := range got {
						gotVar += (v - gotMean) * (v - gotMean)
					}
					gotVar /= float64(n - 1)

					// The local box, its members and the observations whose
					// every support point (bilinear corner of nonzero
					// weight) lies in it.
					x0, x1 := max(x-r.Xi, 0), min(x+r.Xi+1, mesh.NX)
					y0, y1 := max(y-r.Eta, 0), min(y+r.Eta+1, mesh.NY)
					w := x1 - x0
					var members [][]float64
					for by := y0; by < y1; by++ {
						for bx := x0; bx < x1; bx++ {
							row := make([]float64, n)
							for k := range row {
								row[k] = blk.Data[k][by*mesh.NX+bx]
							}
							members = append(members, row)
						}
					}
					var h [][]float64
					var rv, yv []float64
				next:
					for _, o := range cands {
						hrow := make([]float64, len(members))
						for i, wt := range [4]float64{(1 - o.OffsetX) * (1 - o.OffsetY), o.OffsetX * (1 - o.OffsetY), (1 - o.OffsetX) * o.OffsetY, o.OffsetX * o.OffsetY} {
							sx, sy := o.X+i%2, o.Y+i/2
							if wt == 0 {
								continue
							}
							if sx < x0 || sx >= x1 || sy < y0 || sy >= y1 {
								continue next
							}
							hrow[(sy-y0)*w+sx-x0] = wt
						}
						h, rv, yv = append(h, hrow), append(rv, o.Variance), append(yv, o.Value)
					}
					mean, variance, prior := kalmanUpdate(members, h, rv, yv, (y-y0)*w+x-x0)
					if len(h) > 0 {
						observed++
					}
					checked++
					if e := math.Abs(gotMean-mean) / math.Max(math.Abs(mean), math.Sqrt(prior)); !(e <= tol) {
						t.Errorf("N=%d radius %+v offGrid=%v point (%d,%d), %d obs: mean %.17g, Kalman %.17g (relative error %.2g)",
							n, r, offGrid, x, y, len(h), gotMean, mean, e)
					}
					if e := math.Abs(gotVar-variance) / prior; !(e <= tol) {
						t.Errorf("N=%d radius %+v offGrid=%v point (%d,%d), %d obs: variance %.17g, Kalman %.17g (relative error %.2g)",
							n, r, offGrid, x, y, len(h), gotVar, variance, e)
					}
				}
			}
		}
	}
	if observed < checked/2 {
		t.Errorf("only %d of %d checked points had an observation in their box", observed, checked)
	}
	t.Logf("%d points, %d with observations in their box", checked, observed)
}
