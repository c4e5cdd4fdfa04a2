// Package costmodel implements §4.3 and §4.4 of the paper: the cost models
// of the multi-stage computation strategy (Eqs. 7–10 with the notation of
// Table 1), the optimization solver for fixed processor costs (Algorithm 1),
// the earnings-rate condition that picks the most economic I/O processor
// cost (Eqs. 13–14), and the full auto-tuning sweep (Algorithm 2).
//
// Implementation notes (documented deviations from the paper's pseudocode):
//
//   - The paper writes log(·) without a base; collective cost models in its
//     references use log₂. We use log₂(1 + x) so a single reader
//     (n_cg·n_sdy = 1) retains a non-zero read cost instead of the literal
//     formula's log(1) = 0, which would make the degenerate configuration
//     spuriously optimal in Algorithm 1.
//   - Algorithm 2's final comparison in the paper reads
//     "T_min < T_total" where it clearly intends to keep the smaller
//     T_total; we keep the minimum.
package costmodel

import (
	"fmt"
	"math"
)

// Params carries the Table 1 quantities.
type Params struct {
	N     int     // number of background ensemble members (files)
	NX    int     // grid points along longitude
	NY    int     // grid points along latitude
	A     float64 // startup time per message (s)
	B     float64 // transfer time per byte (s/B)
	C     float64 // computation cost of local analysis per grid point (s)
	Theta float64 // transfer time per byte from disk to memory (s/B)
	Xi    int     // radius of influence along longitude (ξ)
	Eta   int     // radius of influence along latitude (η)
	H     int     // volume of data per grid point per level (bytes)
	// Levels is the vertical level count the plan layer's Spec.Levels
	// mirrors. 0 means 1 (single-level). Levels scales the per-point byte
	// volume (h = Levels × H enters Eqs. 7–8) and the per-point analysis
	// work (Eq. 9 runs once per level) — the explicit factor the paper
	// folds into h, kept separate here so T_comp is priced honestly.
	Levels int
}

// LevelCount returns the effective level count (Levels, with 0 → 1).
func (p Params) LevelCount() int {
	if p.Levels <= 0 {
		return 1
	}
	return p.Levels
}

// BytesPerPoint is the total per-grid-point volume entering the I/O and
// communication terms: h bytes per level times the level count.
func (p Params) BytesPerPoint() float64 { return float64(p.H) * float64(p.LevelCount()) }

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.N < 1 || p.NX < 1 || p.NY < 1 || p.H < 1 {
		return fmt.Errorf("costmodel: non-positive problem size N=%d nx=%d ny=%d h=%d", p.N, p.NX, p.NY, p.H)
	}
	if p.Levels < 0 {
		return fmt.Errorf("costmodel: negative level count %d", p.Levels)
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.Theta < 0 {
		return fmt.Errorf("costmodel: negative cost coefficients")
	}
	if p.Xi < 0 || p.Eta < 0 {
		return fmt.Errorf("costmodel: negative radius ξ=%d η=%d", p.Xi, p.Eta)
	}
	return nil
}

// Choice is a parameter assignment for the multi-stage strategy.
type Choice struct {
	NSdx int // sub-domains (compute processors) along longitude
	NSdy int // sub-domains along latitude
	L    int // layers per sub-domain
	NCg  int // concurrent I/O groups
}

// C1 returns the I/O processor cost n_cg·n_sdy.
func (c Choice) C1() int { return c.NCg * c.NSdy }

// C2 returns the compute processor cost n_sdx·n_sdy.
func (c Choice) C2() int { return c.NSdx * c.NSdy }

func (c Choice) String() string {
	return fmt.Sprintf("nsdx=%d nsdy=%d L=%d ncg=%d", c.NSdx, c.NSdy, c.L, c.NCg)
}

// Feasible reports whether the choice divides the problem as Algorithm 1
// requires: n_sdy | n_y, n_sdx | n_x, n_cg | N, and L | n_y/n_sdy.
func (p Params) Feasible(c Choice) bool {
	if c.NSdx < 1 || c.NSdy < 1 || c.L < 1 || c.NCg < 1 {
		return false
	}
	if p.NY%c.NSdy != 0 || p.NX%c.NSdx != 0 || p.N%c.NCg != 0 {
		return false
	}
	return (p.NY/c.NSdy)%c.L == 0
}

// log2p1 is the collective-depth factor log₂(1+x).
func log2p1(x float64) float64 { return math.Log2(1 + x) }

// TRead is Eq. (7): the cost of one stage of concurrent-group bar reading.
// Each of the n_sdy processors in each of the n_cg groups reads a small bar
// of (n_y/(n_sdy·L) + 2η)·n_x points from each of its N/n_cg files.
func (p Params) TRead(c Choice) float64 {
	rows := float64(p.NY)/(float64(c.NSdy)*float64(c.L)) + 2*float64(p.Eta)
	perFile := rows * float64(p.NX) * p.BytesPerPoint() * p.Theta
	return perFile * float64(p.N) / float64(c.NCg) * log2p1(float64(c.NCg*c.NSdy))
}

// TComm is Eq. (8): each I/O processor feeds n_sdx compute processors with
// block messages of (n_y/(n_sdy·L)+2η)·(n_x/n_sdx+2ξ)·N/n_cg points.
func (p Params) TComm(c Choice) float64 {
	rows := float64(p.NY)/(float64(c.NSdy)*float64(c.L)) + 2*float64(p.Eta)
	cols := float64(p.NX)/float64(c.NSdx) + 2*float64(p.Xi)
	bytes := rows * cols * float64(p.N) / float64(c.NCg) * p.BytesPerPoint()
	// Eq. (8)'s depth factor log(n_cg + 1) already includes the +1.
	return float64(c.NSdx) * math.Log2(float64(c.NCg)+1) * (p.A + p.B*bytes)
}

// TComp is Eq. (9): local analysis cost of one layer — run once per
// vertical level, so a multilevel configuration pays Levels × the
// single-level analysis (the engine's per-stage level loop).
func (p Params) TComp(c Choice) float64 {
	perLevel := p.C * (float64(p.NY) / (float64(c.NSdy) * float64(c.L))) * (float64(p.NX) / float64(c.NSdx))
	return perLevel * float64(p.LevelCount())
}

// T1 is the objective of optimization problem (11): T_read + T_comm, the
// non-overlappable first-stage acquisition cost.
func (p Params) T1(c Choice) float64 { return p.TRead(c) + p.TComm(c) }

// TTotal is Eq. (10): the first stage's read + communication plus L stages
// of computation (the remaining reads/communications overlap with compute).
func (p Params) TTotal(c Choice) float64 {
	return p.TRead(c) + p.TComm(c) + float64(c.L)*p.TComp(c)
}

// OptimizeT1 is Algorithm 1: for fixed costs C1 = n_cg·n_sdy and
// C2 = n_sdx·n_sdy it scans every feasible (n_sdx, n_sdy, L, n_cg) and
// returns the choice minimizing T1. ok is false when no feasible choice
// exists.
func (p Params) OptimizeT1(c1, c2 int) (best Choice, bestT1 float64, ok bool) {
	if c1 < 1 || c2 < 1 {
		return Choice{}, 0, false
	}
	for j := 1; j <= c1; j++ { // j = n_sdy
		if c1%j != 0 || c2%j != 0 || p.NY%j != 0 {
			continue
		}
		k := c1 / j // n_cg
		i := c2 / j // n_sdx
		if p.NX%i != 0 || p.N%k != 0 {
			continue
		}
		maxL := p.NY / j
		for l := 1; l <= maxL; l++ {
			if maxL%l != 0 {
				continue
			}
			ch := Choice{NSdx: i, NSdy: j, L: l, NCg: k}
			t := p.T1(ch)
			if !ok || t < bestT1 {
				ok = true
				bestT1 = t
				best = ch
			}
		}
	}
	return best, bestT1, ok
}

// CurvePoint is one point of the "minimal T1 as a function of C1" curve of
// Figure 12.
type CurvePoint struct {
	C1     int
	T1     float64
	Choice Choice
}

// T1Curve computes, for fixed C2, the minimal T1 at every feasible C1 in
// [1, maxC1], keeping only points that strictly improve on the previous
// minimum (as Algorithm 2's bookkeeping does): the curve is strictly
// decreasing in T1 and increasing in C1.
func (p Params) T1Curve(c2, maxC1 int) []CurvePoint {
	var curve []CurvePoint
	bestSoFar := math.Inf(1)
	for c1 := 1; c1 <= maxC1; c1++ {
		ch, t1, ok := p.OptimizeT1(c1, c2)
		if !ok {
			continue
		}
		if t1 < bestSoFar {
			bestSoFar = t1
			curve = append(curve, CurvePoint{C1: c1, T1: t1, Choice: ch})
		}
	}
	return curve
}

// EarningsRate is Eq. (13): the runtime gained per additional I/O processor
// between consecutive curve points.
func EarningsRate(a, b CurvePoint) float64 {
	return (a.T1 - b.T1) / float64(b.C1-a.C1)
}

// EconomicIndex applies the condition (14) and returns the index of the
// chosen curve point plus whether the walk stopped early (the first
// earnings rate below ε) or exhausted the curve. ok is false on an empty
// curve.
func EconomicIndex(curve []CurvePoint, eps float64) (idx int, stopped, ok bool) {
	if len(curve) == 0 {
		return 0, false, false
	}
	for m := 0; m+1 < len(curve); m++ {
		if EarningsRate(curve[m], curve[m+1]) < eps {
			return m, true, true
		}
	}
	return len(curve) - 1, false, true
}

// EconomicChoice applies the condition (14): walk the curve and stop at the
// first point whose earnings rate towards the next point drops below ε —
// "if more cost cannot provide significant benefit any more, choose the
// current cost". Returns the last point when the rate never drops below ε.
func EconomicChoice(curve []CurvePoint, eps float64) (CurvePoint, bool) {
	idx, _, ok := EconomicIndex(curve, eps)
	if !ok {
		return CurvePoint{}, false
	}
	return curve[idx], true
}

// Tuned is the auto-tuner's result.
type Tuned struct {
	Choice Choice
	C1     int // I/O processors
	C2     int // compute processors
	TTotal float64
}

// AutoTune is Algorithm 2: sweep the compute cost C2 from 1 to np, find the
// economic I/O cost C1 ≤ np − C2 for each, and return the configuration
// minimizing the total model time (10). ok is false when np admits no
// feasible configuration.
func (p Params) AutoTune(np int, eps float64) (Tuned, bool) {
	if err := p.Validate(); err != nil {
		return Tuned{}, false
	}
	var best Tuned
	found := false
	for c2 := 1; c2 < np; c2++ {
		curve := p.T1Curve(c2, np-c2)
		pt, ok := EconomicChoice(curve, eps)
		if !ok {
			continue
		}
		total := p.TTotal(pt.Choice)
		if !found || total < best.TTotal {
			found = true
			best = Tuned{Choice: pt.Choice, C1: pt.C1, C2: c2, TTotal: total}
		}
	}
	return best, found
}

// divisors returns the positive divisors of n in increasing order.
func divisors(n int) []int {
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TuneConstraints optionally bounds the auto-tuner's search space. The
// paper's Algorithm 2 searches unboundedly; in practice (and to keep
// discrete-event simulations of the tuned schedule tractable) it is useful
// to cap the layer count and group count. Zero values mean unbounded.
type TuneConstraints struct {
	MaxL   int
	MaxNCg int
}

func (tc TuneConstraints) allows(l, ncg int) bool {
	if tc.MaxL > 0 && l > tc.MaxL {
		return false
	}
	if tc.MaxNCg > 0 && ncg > tc.MaxNCg {
		return false
	}
	return true
}

// t1CurveFast computes the same strictly-improving (C1, min T1) curve as
// T1Curve but enumerates only feasible (n_sdy, n_cg, L) structures instead
// of scanning every integer C1 — equivalent output, polynomially cheaper.
// Used by AutoTuneFast at paper scale (np ≈ 12,000).
func (p Params) t1CurveFast(c2, maxC1 int) []CurvePoint {
	return p.T1CurveConstrained(c2, maxC1, TuneConstraints{})
}

// T1CurveConstrained is the fast T1 curve restricted to choices allowed by
// tc; with zero constraints it matches the literal T1Curve.
func (p Params) T1CurveConstrained(c2, maxC1 int, tc TuneConstraints) []CurvePoint {
	type bestAt struct {
		t1 float64
		ch Choice
		ok bool
	}
	best := map[int]*bestAt{}
	var c1s []int
	groups := divisors(p.N)
	for _, nsdy := range divisors(p.NY) {
		if c2%nsdy != 0 {
			continue
		}
		nsdx := c2 / nsdy
		if p.NX%nsdx != 0 {
			continue
		}
		layers := divisors(p.NY / nsdy)
		for _, ncg := range groups {
			c1 := ncg * nsdy
			if c1 > maxC1 {
				continue
			}
			for _, l := range layers {
				if !tc.allows(l, ncg) {
					continue
				}
				ch := Choice{NSdx: nsdx, NSdy: nsdy, L: l, NCg: ncg}
				t1 := p.T1(ch)
				b := best[c1]
				if b == nil {
					b = &bestAt{}
					best[c1] = b
					c1s = append(c1s, c1)
				}
				if !b.ok || t1 < b.t1 {
					b.ok = true
					b.t1 = t1
					b.ch = ch
				}
			}
		}
	}
	sortInts(c1s)
	var curve []CurvePoint
	bestSoFar := math.Inf(1)
	for _, c1 := range c1s {
		b := best[c1]
		if b.ok && b.t1 < bestSoFar {
			bestSoFar = b.t1
			curve = append(curve, CurvePoint{C1: c1, T1: b.t1, Choice: b.ch})
		}
	}
	return curve
}

// AutoTuneFast is Algorithm 2 with the search restructured around feasible
// divisor structures: identical results to AutoTune, but usable at the
// paper's processor counts. Only compute costs C2 with a feasible
// decomposition are visited (others contribute nothing in AutoTune either).
func (p Params) AutoTuneFast(np int, eps float64) (Tuned, bool) {
	return p.AutoTuneConstrained(np, eps, TuneConstraints{})
}

// AutoTuneConstrained is AutoTuneFast restricted to choices allowed by tc.
func (p Params) AutoTuneConstrained(np int, eps float64, tc TuneConstraints) (Tuned, bool) {
	t, _, ok := p.autoTuneConstrained(np, eps, tc, false)
	return t, ok
}

// autoTuneConstrained is the shared Algorithm 2 body. With record set it
// additionally returns the full search trace Algorithms 1–2 walked (every
// T1 curve, the Eq. 13 earnings-rate series, and the Eq. 14 stopping
// point per compute cost) — tuner explainability at zero cost to the
// plain path.
func (p Params) autoTuneConstrained(np int, eps float64, tc TuneConstraints, record bool) (Tuned, *SearchTrace, bool) {
	if err := p.Validate(); err != nil {
		return Tuned{}, nil, false
	}
	var st *SearchTrace
	if record {
		st = &SearchTrace{NP: np, Eps: eps, Constraints: tc, BestIndex: -1}
	}
	var best Tuned
	found := false
	seen := map[int]bool{}
	xs := divisors(p.NX)
	for _, nsdy := range divisors(p.NY) {
		for _, nsdx := range xs {
			c2 := nsdx * nsdy
			if c2 >= np || seen[c2] {
				continue
			}
			seen[c2] = true
			curve := p.T1CurveConstrained(c2, np-c2, tc)
			idx, stopped, ok := EconomicIndex(curve, eps)
			if !ok {
				continue
			}
			pt := curve[idx]
			total := p.TTotal(pt.Choice)
			if st != nil {
				ce := CurveExplain{
					C2: c2, Points: curve, PickIndex: idx,
					StoppedEarly: stopped, TTotal: total,
				}
				for m := 0; m+1 < len(curve); m++ {
					ce.Rates = append(ce.Rates, EarningsRate(curve[m], curve[m+1]))
				}
				st.Curves = append(st.Curves, ce)
			}
			if !found || total < best.TTotal {
				found = true
				best = Tuned{Choice: pt.Choice, C1: pt.C1, C2: c2, TTotal: total}
				if st != nil {
					st.BestIndex = len(st.Curves) - 1
				}
			}
		}
	}
	return best, st, found
}

// BruteForceTune scans every feasible choice with C1 + C2 ≤ np and returns
// the one with minimal TTotal — the reference Algorithm 2 is tested
// against. Exponentially slower than AutoTune for large np; intended for
// tests with small problems.
func (p Params) BruteForceTune(np int) (Tuned, bool) {
	var best Tuned
	found := false
	for nsdy := 1; nsdy <= np && nsdy <= p.NY; nsdy++ {
		if p.NY%nsdy != 0 {
			continue
		}
		for nsdx := 1; nsdx*nsdy <= np && nsdx <= p.NX; nsdx++ {
			if p.NX%nsdx != 0 {
				continue
			}
			for ncg := 1; ncg <= p.N; ncg++ {
				if p.N%ncg != 0 {
					continue
				}
				c1, c2 := ncg*nsdy, nsdx*nsdy
				if c1+c2 > np {
					continue
				}
				maxL := p.NY / nsdy
				for l := 1; l <= maxL; l++ {
					if maxL%l != 0 {
						continue
					}
					ch := Choice{NSdx: nsdx, NSdy: nsdy, L: l, NCg: ncg}
					total := p.TTotal(ch)
					if !found || total < best.TTotal {
						found = true
						best = Tuned{Choice: ch, C1: c1, C2: c2, TTotal: total}
					}
				}
			}
		}
	}
	return best, found
}
