package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// testParams is a small problem with paper-like cost structure.
func testParams() Params {
	return Params{
		N: 12, NX: 120, NY: 60,
		A: 2e-6, B: 2e-10, C: 5e-6, Theta: 5e-10,
		Xi: 4, Eta: 2, H: 8,
	}
}

func TestValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := testParams()
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected size error")
	}
	bad = testParams()
	bad.A = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected coefficient error")
	}
	bad = testParams()
	bad.Xi = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected radius error")
	}
}

func TestChoiceCosts(t *testing.T) {
	c := Choice{NSdx: 5, NSdy: 3, L: 2, NCg: 4}
	if c.C1() != 12 || c.C2() != 15 {
		t.Errorf("C1=%d C2=%d", c.C1(), c.C2())
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestFeasible(t *testing.T) {
	p := testParams()
	good := Choice{NSdx: 4, NSdy: 3, L: 5, NCg: 3}
	if !p.Feasible(good) {
		t.Errorf("choice %v should be feasible", good)
	}
	cases := []Choice{
		{NSdx: 0, NSdy: 1, L: 1, NCg: 1},
		{NSdx: 7, NSdy: 1, L: 1, NCg: 1}, // 120 % 7 != 0
		{NSdx: 4, NSdy: 7, L: 1, NCg: 1}, // 60 % 7 != 0
		{NSdx: 4, NSdy: 3, L: 7, NCg: 1}, // 20 % 7 != 0
		{NSdx: 4, NSdy: 3, L: 5, NCg: 5}, // 12 % 5 != 0
	}
	for _, c := range cases {
		if p.Feasible(c) {
			t.Errorf("choice %v should be infeasible", c)
		}
	}
}

func TestCostFormulasAgainstHandComputation(t *testing.T) {
	p := testParams()
	c := Choice{NSdx: 4, NSdy: 3, L: 2, NCg: 2}
	rows := 60.0/(3*2) + 2*2            // ny/(nsdy*L) + 2*eta = 14
	perFile := rows * 120 * 8 * p.Theta // bytes * theta
	wantRead := perFile * 12 / 2 * math.Log2(1+6)
	if got := p.TRead(c); math.Abs(got-wantRead) > 1e-15 {
		t.Errorf("TRead = %g, want %g", got, wantRead)
	}
	cols := 120.0/4 + 2*4 // 38
	bytes := rows * cols * 12 / 2 * 8
	wantComm := 4 * math.Log2(3) * (p.A + p.B*bytes)
	if got := p.TComm(c); math.Abs(got-wantComm) > 1e-15 {
		t.Errorf("TComm = %g, want %g", got, wantComm)
	}
	wantComp := p.C * (60.0 / (3 * 2)) * (120.0 / 4)
	if got := p.TComp(c); math.Abs(got-wantComp) > 1e-15 {
		t.Errorf("TComp = %g, want %g", got, wantComp)
	}
	if got := p.TTotal(c); math.Abs(got-(wantRead+wantComm+2*wantComp)) > 1e-15 {
		t.Errorf("TTotal = %g", got)
	}
	if got := p.T1(c); math.Abs(got-(wantRead+wantComm)) > 1e-15 {
		t.Errorf("T1 = %g", got)
	}
}

func TestOptimizeT1MatchesExhaustiveScan(t *testing.T) {
	p := testParams()
	for _, cs := range [][2]int{{6, 12}, {4, 8}, {12, 24}, {3, 15}} {
		c1, c2 := cs[0], cs[1]
		got, gotT1, ok := p.OptimizeT1(c1, c2)
		// Exhaustive reference scan.
		bestT1 := math.Inf(1)
		found := false
		for nsdy := 1; nsdy <= c1; nsdy++ {
			if c1%nsdy != 0 || c2%nsdy != 0 {
				continue
			}
			ch := Choice{NSdy: nsdy, NCg: c1 / nsdy, NSdx: c2 / nsdy}
			for l := 1; nsdy <= p.NY && l <= p.NY/nsdy; l++ {
				ch.L = l
				if !p.Feasible(ch) {
					continue
				}
				found = true
				if t1 := p.T1(ch); t1 < bestT1 {
					bestT1 = t1
				}
			}
		}
		if ok != found {
			t.Fatalf("C1=%d C2=%d: ok=%v found=%v", c1, c2, ok, found)
		}
		if !ok {
			continue
		}
		if math.Abs(gotT1-bestT1) > 1e-12 {
			t.Errorf("C1=%d C2=%d: OptimizeT1=%g, exhaustive=%g (choice %v)", c1, c2, gotT1, bestT1, got)
		}
		if !p.Feasible(got) {
			t.Errorf("C1=%d C2=%d: returned infeasible choice %v", c1, c2, got)
		}
		if got.C1() != c1 || got.C2() != c2 {
			t.Errorf("C1=%d C2=%d: choice %v has C1=%d C2=%d", c1, c2, got, got.C1(), got.C2())
		}
	}
}

func TestOptimizeT1Infeasible(t *testing.T) {
	p := testParams()
	if _, _, ok := p.OptimizeT1(0, 4); ok {
		t.Error("C1=0 should be infeasible")
	}
	// C1 = 7: n_sdy must divide 7 and 60 -> n_sdy=1,7. 7∤60 so n_sdy=1,
	// n_cg=7 but 12%7 != 0 -> infeasible.
	if _, _, ok := p.OptimizeT1(7, 4); ok {
		t.Error("C1=7 should be infeasible for N=12")
	}
}

func TestT1CurveMonotone(t *testing.T) {
	p := testParams()
	curve := p.T1Curve(12, 36)
	if len(curve) < 3 {
		t.Fatalf("curve too short: %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].C1 <= curve[i-1].C1 {
			t.Errorf("curve C1 not increasing at %d", i)
		}
		if curve[i].T1 >= curve[i-1].T1 {
			t.Errorf("curve T1 not decreasing at %d", i)
		}
	}
}

func TestEarningsRatePositiveOnCurve(t *testing.T) {
	p := testParams()
	curve := p.T1Curve(12, 36)
	for i := 0; i+1 < len(curve); i++ {
		if r := EarningsRate(curve[i], curve[i+1]); r <= 0 {
			t.Errorf("earnings rate %g at %d not positive", r, i)
		}
	}
}

func TestEconomicChoiceStopsAtSmallRate(t *testing.T) {
	curve := []CurvePoint{
		{C1: 1, T1: 10},
		{C1: 2, T1: 6},   // rate 4
		{C1: 4, T1: 5},   // rate 0.5
		{C1: 8, T1: 4.9}, // rate 0.025
	}
	pt, ok := EconomicChoice(curve, 1.0)
	if !ok || pt.C1 != 2 {
		t.Errorf("eps=1: chose C1=%d, want 2", pt.C1)
	}
	pt, ok = EconomicChoice(curve, 0.1)
	if !ok || pt.C1 != 4 {
		t.Errorf("eps=0.1: chose C1=%d, want 4", pt.C1)
	}
	// Rate never below tiny eps: last point.
	pt, ok = EconomicChoice(curve, 1e-9)
	if !ok || pt.C1 != 8 {
		t.Errorf("tiny eps: chose C1=%d, want 8", pt.C1)
	}
	if _, ok := EconomicChoice(nil, 1); ok {
		t.Error("empty curve should not produce a choice")
	}
}

func TestAutoTuneReturnsFeasibleWithinBudget(t *testing.T) {
	p := testParams()
	for _, np := range []int{8, 16, 32, 64} {
		tuned, ok := p.AutoTune(np, 0.01)
		if !ok {
			t.Fatalf("np=%d: no configuration", np)
		}
		if !p.Feasible(tuned.Choice) {
			t.Errorf("np=%d: infeasible choice %v", np, tuned.Choice)
		}
		if tuned.C1+tuned.C2 > np {
			t.Errorf("np=%d: budget exceeded: C1=%d C2=%d", np, tuned.C1, tuned.C2)
		}
		if tuned.Choice.C1() != tuned.C1 || tuned.Choice.C2() != tuned.C2 {
			t.Errorf("np=%d: inconsistent costs", np)
		}
		if tuned.TTotal <= 0 {
			t.Errorf("np=%d: non-positive TTotal %g", np, tuned.TTotal)
		}
	}
}

func TestAutoTuneNearBruteForceOptimum(t *testing.T) {
	// The economic condition trades a little runtime for fewer processors,
	// so AutoTune's model time must be within a modest factor of the
	// unconstrained optimum (and never better).
	p := testParams()
	for _, np := range []int{16, 32, 64} {
		tuned, ok := p.AutoTune(np, 1e-4)
		if !ok {
			t.Fatalf("np=%d: no configuration", np)
		}
		brute, ok := p.BruteForceTune(np)
		if !ok {
			t.Fatalf("np=%d: brute force found nothing", np)
		}
		if tuned.TTotal < brute.TTotal-1e-12 {
			t.Errorf("np=%d: AutoTune %g beat brute force %g", np, tuned.TTotal, brute.TTotal)
		}
		if tuned.TTotal > 2*brute.TTotal {
			t.Errorf("np=%d: AutoTune %g far from optimum %g", np, tuned.TTotal, brute.TTotal)
		}
	}
}

func TestAutoTuneMoreProcessorsNeverWorse(t *testing.T) {
	// With a tiny eps (earn-everything), the tuned model time should be
	// non-increasing in the processor budget.
	p := testParams()
	prev := math.Inf(1)
	for _, np := range []int{8, 16, 24, 48, 96} {
		tuned, ok := p.AutoTune(np, 1e-12)
		if !ok {
			t.Fatalf("np=%d: no configuration", np)
		}
		if tuned.TTotal > prev+1e-12 {
			t.Errorf("np=%d: TTotal %g worse than smaller budget %g", np, tuned.TTotal, prev)
		}
		prev = tuned.TTotal
	}
}

func TestAutoTuneInvalidInputs(t *testing.T) {
	p := testParams()
	if _, ok := p.AutoTune(1, 0.01); ok {
		t.Error("np=1 leaves no room for both costs")
	}
	bad := p
	bad.NX = 0
	if _, ok := bad.AutoTune(16, 0.01); ok {
		t.Error("invalid params should not tune")
	}
}

func TestTReadDecreasesWithNCg(t *testing.T) {
	// §4.4: T_total decreases as n_cg grows (more I/O processors).
	p := testParams()
	base := Choice{NSdx: 4, NSdy: 3, L: 2}
	prev := math.Inf(1)
	for _, ncg := range []int{1, 2, 3, 4, 6, 12} {
		c := base
		c.NCg = ncg
		if !p.Feasible(c) {
			t.Fatalf("choice %v infeasible", c)
		}
		tt := p.TTotal(c)
		if tt >= prev {
			t.Errorf("TTotal did not decrease at ncg=%d: %g >= %g", ncg, tt, prev)
		}
		prev = tt
	}
}

func TestMoreLayersReduceFirstStageCost(t *testing.T) {
	// Layers shrink the first-stage read/comm volume: T1 decreases with L,
	// while L·TComp stays constant (fixed C2).
	p := testParams()
	base := Choice{NSdx: 4, NSdy: 3, NCg: 2}
	var prevT1 float64 = math.Inf(1)
	var compTotal []float64
	for _, l := range []int{1, 2, 4, 5, 10, 20} {
		c := base
		c.L = l
		if !p.Feasible(c) {
			t.Fatalf("choice %v infeasible", c)
		}
		t1 := p.T1(c)
		if t1 >= prevT1 {
			t.Errorf("T1 did not decrease at L=%d: %g >= %g", l, t1, prevT1)
		}
		prevT1 = t1
		compTotal = append(compTotal, float64(l)*p.TComp(c))
	}
	for i := 1; i < len(compTotal); i++ {
		if math.Abs(compTotal[i]-compTotal[0]) > 1e-12 {
			t.Errorf("L·TComp varied with L: %v", compTotal)
		}
	}
}

func TestQuickCostsNonNegativeAndFinite(t *testing.T) {
	p := testParams()
	f := func(a, b, c, d uint8) bool {
		ch := Choice{
			NSdx: int(a%8) + 1, NSdy: int(b%6) + 1,
			L: int(c%5) + 1, NCg: int(d%6) + 1,
		}
		vals := []float64{p.TRead(ch), p.TComm(ch), p.TComp(ch), p.TTotal(ch)}
		for _, v := range vals {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return p.TTotal(ch) >= p.T1(ch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestT1CurveFastMatchesLiteral(t *testing.T) {
	p := testParams()
	for _, c2 := range []int{4, 12, 24, 30} {
		fast := p.T1CurveConstrained(c2, 48, TuneConstraints{})
		slow := p.T1Curve(c2, 48)
		if len(fast) != len(slow) {
			t.Fatalf("C2=%d: fast curve has %d points, literal %d", c2, len(fast), len(slow))
		}
		for i := range slow {
			if fast[i].C1 != slow[i].C1 || math.Abs(fast[i].T1-slow[i].T1) > 1e-12 {
				t.Errorf("C2=%d point %d: fast (%d, %g) vs literal (%d, %g)",
					c2, i, fast[i].C1, fast[i].T1, slow[i].C1, slow[i].T1)
			}
		}
	}
}

func TestAutoTuneFastMatchesLiteral(t *testing.T) {
	p := testParams()
	for _, np := range []int{8, 16, 32, 64} {
		for _, eps := range []float64{1e-12, 1e-4, 0.01} {
			fast, okF := p.AutoTuneConstrained(np, eps, TuneConstraints{})
			slow, okS := p.AutoTune(np, eps)
			if okF != okS {
				t.Fatalf("np=%d eps=%g: ok mismatch %v vs %v", np, eps, okF, okS)
			}
			if !okF {
				continue
			}
			if math.Abs(fast.TTotal-slow.TTotal) > 1e-12 {
				t.Errorf("np=%d eps=%g: fast TTotal %g (%v), literal %g (%v)",
					np, eps, fast.TTotal, fast.Choice, slow.TTotal, slow.Choice)
			}
		}
	}
}

func TestAutoTuneFastPaperScale(t *testing.T) {
	// The fast tuner must handle the real problem size quickly.
	p := Params{
		N: 120, NX: 3600, NY: 1800,
		A: 2e-6, B: 2e-10, C: 1.3e-4,
		Theta: 0.5e-9, Xi: 16, Eta: 8, H: 240,
	}
	tuned, ok := p.AutoTuneConstrained(12000, 0.001, TuneConstraints{})
	if !ok {
		t.Fatal("no configuration at paper scale")
	}
	if tuned.C1+tuned.C2 > 12000 {
		t.Errorf("budget exceeded: C1=%d C2=%d", tuned.C1, tuned.C2)
	}
	if !p.Feasible(tuned.Choice) {
		t.Errorf("infeasible choice %v", tuned.Choice)
	}
	t.Logf("paper-scale tuned: %v (C1=%d, C2=%d, T=%gs)", tuned.Choice, tuned.C1, tuned.C2, tuned.TTotal)
}
