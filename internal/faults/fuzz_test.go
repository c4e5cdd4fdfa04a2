package faults

import (
	"math"
	"testing"
)

func TestParseStraggler(t *testing.T) {
	cases := []struct {
		spec   string
		proc   string
		factor float64 // 0: the spec is rejected
	}{
		{"io/g0/r0:30", "io/g0/r0", 30},
		{"io/g0:r0:2.5", "io/g0:r0", 2.5},
		{"io/g0/r0:NaN", "", 0},
		{"io/g0/r0:+Inf", "", 0},
		{"io/g0/r0:Inf", "", 0},
		{"io/g0/r0:1e309", "", 0},
		{"io/g0/r0:1", "", 0},
		{"io/g0/r0:0.5", "", 0},
		{":5", "", 0},
		{"x:", "", 0},
		{"x", "", 0},
	}
	for _, c := range cases {
		s, err := ParseStraggler(c.spec)
		if c.factor == 0 {
			if err == nil {
				t.Errorf("ParseStraggler(%q) = %+v, want an error", c.spec, s)
			}
			continue
		}
		if err != nil || s.Proc != c.proc || s.Factor != c.factor {
			t.Errorf("ParseStraggler(%q) = %+v, %v; want {%s %g}", c.spec, s, err, c.proc, c.factor)
		}
	}
}

// FuzzParseStraggler feeds the -straggler flag parser arbitrary strings.
// The seed corpus (testdata/fuzz/FuzzParseStraggler) holds NaN, +Inf and
// overflowing factors, an empty proc, an empty factor, a proc containing a
// colon, a factor of exactly 1 and a valid spec. Properties: the parser
// never panics, and what it accepts names a proc, slows it by a finite
// factor > 1 and passes Plan.Validate. The NaN and +Inf seeds caught the
// parser accepting both: a NaN straggler was announced but never applied,
// a +Inf one made every simulated sleep of its process infinite.
func FuzzParseStraggler(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseStraggler(spec)
		if err != nil {
			return
		}
		if s.Proc == "" || math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) || s.Factor <= 1 {
			t.Fatalf("ParseStraggler(%q) accepted %+v", spec, s)
		}
		if err := (&Plan{Stragglers: []Straggler{s}}).Validate(0, 0, 0, 0, 0); err != nil {
			t.Fatalf("ParseStraggler(%q) = %+v fails Validate: %v", spec, s, err)
		}
	})
}
