package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverge at step %d", i)
		}
	}
}

func TestKeyedStreamOrderAndValueSensitivity(t *testing.T) {
	a := KeyedStream(1, 2, 3)
	b := KeyedStream(1, 3, 2)
	c := KeyedStream(1, 2, 3)
	if a.Uint64() == b.Uint64() {
		t.Error("keyed streams with swapped keys should differ")
	}
	a2 := KeyedStream(1, 2, 3)
	if a2.Uint64() != c.Uint64() {
		t.Error("keyed streams with same keys must match")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestNormMomentsRoughlyStandard(t *testing.T) {
	s := NewStream(99)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

// NormVec fills a fresh slice of n standard normal variates.
func (s *Stream) NormVec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Norm()
	}
	return out
}

func TestNormVecLength(t *testing.T) {
	s := NewStream(3)
	v := s.NormVec(17)
	if len(v) != 17 {
		t.Fatalf("NormVec length %d, want 17", len(v))
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) over 1000 draws hit only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(6)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestQuickKeyedStreamsIndependentOfExtraKey(t *testing.T) {
	// Streams derived with different final keys should (almost surely)
	// produce different first values.
	f := func(seed uint64, k int) bool {
		a := KeyedStream(seed, k)
		b := KeyedStream(seed, k+1)
		return a.Uint64() != b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oracleStream is Stream as it was before Norm deferred the spare's sine
// and KeyedStream mixed its keys through Key, kept verbatim: every draw in
// the repository must stay the bits it was.
type oracleStream struct {
	state     uint64
	haveSpare bool
	spare     float64
}

func oracleKeyedStream(seed uint64, keys ...int) *oracleStream {
	s := seed
	for _, k := range keys {
		s = mix64(s ^ (uint64(k)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03))
	}
	return &oracleStream{state: s}
}

func (s *oracleStream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

func (s *oracleStream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

func (s *oracleStream) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u1 float64
	for {
		u1 = s.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.spare = r * math.Sin(theta)
	s.haveSpare = true
	return r * math.Cos(theta)
}

func (s *oracleStream) Intn(n int) int {
	return int(s.Uint64() % uint64(n))
}

// Over many keyed streams, a random interleaving of every draw — normals
// whose spare is taken, skipped past by other draws, or never asked for —
// gives the oracle's bits.
func TestStreamMatchesOracleBitForBit(t *testing.T) {
	choose := NewStream(0xD21E)
	for seed := uint64(0); seed < 3000; seed++ {
		keys := make([]int, choose.Intn(7))
		for i := range keys {
			keys[i] = int(choose.Uint64()>>1) - 1<<62
		}
		got, want := KeyedStream(seed, keys...), oracleKeyedStream(seed, keys...)
		for step := 0; step < 40; step++ {
			op := choose.Intn(5)
			var g, w uint64
			switch op {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 2:
				n := 1 + choose.Intn(1000)
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			default:
				g, w = math.Float64bits(got.Norm()), math.Float64bits(want.Norm())
			}
			if g != w {
				t.Fatalf("seed %d keys %v step %d op %d: got %#x, oracle %#x", seed, keys, step, op, g, w)
			}
		}
	}
}

// Mixing a prefix of the keys first and the rest after is KeyedStream over
// all of them, at every split.
func TestKeyPrefixThenRestIsKeyedStream(t *testing.T) {
	choose := NewStream(0x9EF1)
	for seed := uint64(0); seed < 500; seed++ {
		keys := make([]int, choose.Intn(8))
		for i := range keys {
			keys[i] = choose.Intn(1<<20) - 1<<19
		}
		for j := 0; j <= len(keys); j++ {
			a, b := KeyedStream(Key(seed, keys[:j]...), keys[j:]...), KeyedStream(seed, keys...)
			for i := 0; i < 4; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d keys %v split %d draw %d: %#x, want %#x", seed, keys, j, i, x, y)
				}
			}
		}
	}
}

// NormInto is len(dst) Norm calls: the same bits, and the same stream after,
// so the next Norm agrees too. Lengths 0 to 257, odd and even, on streams
// with and without a pending spare.
func TestNormIntoIsSuccessiveNorms(t *testing.T) {
	choose := NewStream(0x40A1)
	for n := 0; n <= 257; n++ {
		for _, pending := range []bool{false, true} {
			seed := choose.Uint64()
			got, want := NewStream(seed), NewStream(seed)
			if pending {
				got.Norm()
				want.Norm()
			}
			dst := make([]float64, n)
			got.NormInto(dst)
			for i, v := range dst {
				if w := want.Norm(); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("length %d, pending spare %v: value %d is %#x, Norm gives %#x",
						n, pending, i, math.Float64bits(v), math.Float64bits(w))
				}
			}
			if g, w := got.Norm(), want.Norm(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("length %d, pending spare %v: the next Norm is %#x, want %#x",
					n, pending, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// NormInto's bits rest on math.Sincos being (math.Sin, math.Cos) bit for
// bit; checked on 10⁶ angles drawn as Norm draws them, θ = 2π·u.
func TestSincosIsSinAndCos(t *testing.T) {
	s := NewStream(0x51C05)
	for i := 0; i < 1_000_000; i++ {
		theta := 2 * math.Pi * s.Float64()
		sin, cos := math.Sincos(theta)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(theta)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("θ = %v: Sincos gives (%v, %v), Sin and Cos give (%v, %v)",
				theta, sin, cos, math.Sin(theta), math.Cos(theta))
		}
	}
}
