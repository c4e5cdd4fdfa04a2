package workload

import (
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

func testMesh(t *testing.T) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTruthDeterministic(t *testing.T) {
	m := testMesh(t)
	a := Truth(m, DefaultFieldSpec, 5)
	b := Truth(m, DefaultFieldSpec, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("truth not deterministic at %d", i)
		}
	}
	c := Truth(m, DefaultFieldSpec, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical truth")
	}
}

func TestTruthHasSpatialStructure(t *testing.T) {
	// Smooth fields: adjacent points are far more correlated than distant
	// ones. Compare mean |∇f| against the field's overall spread.
	m := testMesh(t)
	spec := DefaultFieldSpec
	spec.Noise = 0 // pure smooth modes
	f := Truth(m, spec, 7)
	var gradSum float64
	var count int
	for y := 0; y < m.NY; y++ {
		for x := 0; x+1 < m.NX; x++ {
			gradSum += math.Abs(f[m.Index(x+1, y)] - f[m.Index(x, y)])
			count++
		}
	}
	meanGrad := gradSum / float64(count)
	var mn, mx float64 = math.Inf(1), math.Inf(-1)
	for _, v := range f {
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	if spread := mx - mn; meanGrad > spread/4 {
		t.Errorf("field not smooth: mean gradient %g vs spread %g", meanGrad, spread)
	}
	if mx == mn {
		t.Error("field is constant")
	}
}

func TestEnsembleValidation(t *testing.T) {
	m := testMesh(t)
	truth := Truth(m, DefaultFieldSpec, 1)
	if _, err := Ensemble(m, truth[:5], 4, 1, 1); err == nil {
		t.Error("expected truth-length error")
	}
	if _, err := Ensemble(m, truth, 1, 1, 1); err == nil {
		t.Error("expected ensemble-size error")
	}
	if _, err := Ensemble(m, truth, 4, 0, 1); err == nil {
		t.Error("expected spread error")
	}
}

func TestEnsembleStatistics(t *testing.T) {
	m := testMesh(t)
	truth := Truth(m, DefaultFieldSpec, 2)
	const n = 24
	const spread = 1.5
	fields, err := Ensemble(m, truth, n, spread, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != n {
		t.Fatalf("got %d members", len(fields))
	}
	// Members deviate from the truth on the order of the spread, and
	// distinct members differ from each other.
	var devSum float64
	for k := 0; k < n; k++ {
		var s float64
		for i := range truth {
			d := fields[k][i] - truth[i]
			s += d * d
		}
		rmse := math.Sqrt(s / float64(len(truth)))
		if rmse == 0 {
			t.Fatalf("member %d equals the truth", k)
		}
		if rmse > 3*spread {
			t.Fatalf("member %d deviates too much: %g", k, rmse)
		}
		devSum += rmse
	}
	if mean := devSum / n; mean < spread/10 {
		t.Errorf("ensemble too tight: mean member RMSE %g for spread %g", mean, spread)
	}
	diff := false
	for i := range fields[0] {
		if fields[0][i] != fields[1][i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("members 0 and 1 identical")
	}
}

func TestEnsembleDeterministicPerMember(t *testing.T) {
	m := testMesh(t)
	truth := Truth(m, DefaultFieldSpec, 3)
	a, err := Ensemble(m, truth, 6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ensemble(m, truth, 6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatalf("member %d not deterministic", k)
			}
		}
	}
}

func TestPresets(t *testing.T) {
	for _, p := range []Preset{PaperScale, LaptopScale, TestScale} {
		m, err := p.Mesh()
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if m.NX != p.NX || m.NY != p.NY {
			t.Errorf("%s: mesh mismatch", p.Name)
		}
		r := p.Radius()
		if r.Xi != p.Xi || r.Eta != p.Eta {
			t.Errorf("%s: radius mismatch", p.Name)
		}
		if p.Members < 2 {
			t.Errorf("%s: too few members", p.Name)
		}
		if p.BytesPerPoint() != 8*p.Levels {
			t.Errorf("%s: h = %d", p.Name, p.BytesPerPoint())
		}
	}
	// Paper geometry exactly as §5.1.
	if PaperScale.NX != 3600 || PaperScale.NY != 1800 || PaperScale.Members != 120 || PaperScale.Levels != 30 {
		t.Errorf("paper preset drifted: %+v", PaperScale)
	}
}

// smoothNoiseDirect is SmoothNoise by the defining formula: every point of
// every mode through its own math.Sin. Kept as the oracle the separable
// evaluation is measured against.
func smoothNoiseDirect(m grid.Mesh, sd float64, seed uint64, keys ...int) []float64 {
	s := linalg.KeyedStream(seed, append([]int{0x5A00F}, keys...)...)
	const modes = 4
	type mode struct {
		kx, ky, phase, amp float64
	}
	ms := make([]mode, modes)
	for i := range ms {
		ms[i] = mode{
			kx:    float64(s.Intn(5)+1) * 2 * math.Pi / float64(m.NX),
			ky:    float64(s.Intn(5)+1) * 2 * math.Pi / float64(m.NY),
			phase: s.Float64() * 2 * math.Pi,
			amp:   sd * (0.5 + s.Float64()) / modes * 2,
		}
	}
	f := make([]float64, m.Points())
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			var v float64
			for _, md := range ms {
				v += md.amp * math.Sin(md.kx*float64(x)+md.ky*float64(y)+md.phase)
			}
			f[m.Index(x, y)] = v
		}
	}
	ws := linalg.KeyedStream(seed, append([]int{0x5A010}, keys...)...)
	for i := range f {
		f[i] += 0.15 * sd * ws.Norm()
	}
	return f
}

// The separable evaluation rounds differently from the direct formula, by
// a few ulps of the angle: the fields must agree to 1e-13·sd everywhere, and
// the field must still be what the formula describes (same modes, same white
// noise), not merely something deterministic.
func TestSmoothNoiseMatchesDirectFormula(t *testing.T) {
	const sd = 0.2
	var worst float64
	for _, shape := range [][2]int{{128, 64}, {37, 23}} {
		m, err := grid.NewMesh(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		for key := 0; key < 120; key++ {
			seed := uint64(7001 + 13*key)
			got := SmoothNoise(m, sd, seed, 0x30DE1, key/32, key%2, key%32)
			want := smoothNoiseDirect(m, sd, seed, 0x30DE1, key/32, key%2, key%32)
			if len(got) != len(want) {
				t.Fatalf("mesh %v: %d points, want %d", shape, len(got), len(want))
			}
			for i := range want {
				d := math.Abs(got[i] - want[i])
				if !(d <= 1e-13*sd) {
					t.Fatalf("mesh %v key %d point %d: %g vs direct %g, off by %g·sd", shape, key, i, got[i], want[i], d/sd)
				}
				worst = math.Max(worst, d)
			}
		}
	}
	t.Logf("largest distance from the direct formula over 240 fields: %.3g·sd", worst/sd)
}

// smoothNoiseNormLoop is SmoothNoise as it was before its white noise came
// from NormInto: one Norm call per point. Kept as the oracle SmoothNoiseInto
// must equal bit for bit.
func smoothNoiseNormLoop(m grid.Mesh, sd float64, seed uint64, keys ...int) []float64 {
	s := linalg.KeyedStream(seed, append([]int{0x5A00F}, keys...)...)
	const modes = 4
	f := make([]float64, m.Points())
	ax, bx := make([]float64, m.NX), make([]float64, m.NX)
	sy, cy := make([]float64, m.NY), make([]float64, m.NY)
	for i := 0; i < modes; i++ {
		kx := float64(s.Intn(5)+1) * 2 * math.Pi / float64(m.NX)
		ky := float64(s.Intn(5)+1) * 2 * math.Pi / float64(m.NY)
		phase := s.Float64() * 2 * math.Pi
		amp := sd * (0.5 + s.Float64()) / modes * 2
		for x := range ax {
			sin, cos := math.Sincos(kx * float64(x))
			ax[x], bx[x] = amp*sin, amp*cos
		}
		for y := range sy {
			sy[y], cy[y] = math.Sincos(ky*float64(y) + phase)
		}
		for y := 0; y < m.NY; y++ {
			for x := 0; x < m.NX; x++ {
				f[y*m.NX+x] += ax[x]*cy[y] + bx[x]*sy[y]
			}
		}
	}
	ws := linalg.KeyedStream(seed, append([]int{0x5A010}, keys...)...)
	for i := range f {
		f[i] += 0.15 * sd * ws.Norm()
	}
	return f
}

// SmoothNoiseInto overwrites whatever dst holds and reads nothing from tab
// it did not write: into dirty buffers, with tab exactly 2·(NX+NY) long or
// longer by an odd count (so the white-noise blocks split Box–Muller
// pairs), it gives the Norm-per-point field bit for bit, and so does
// SmoothNoise.
func TestSmoothNoiseIntoIsTheNormLoop(t *testing.T) {
	const sd = 0.2
	for _, shape := range [][2]int{{45, 27}, {128, 64}, {1, 1}, {3, 1}} {
		m, err := grid.NewMesh(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		for key := 0; key < 8; key++ {
			want := smoothNoiseNormLoop(m, sd, 99, 0x30DE1, key, key%2)
			for _, extra := range []int{0, 7} {
				dst, tab := make([]float64, m.Points()), make([]float64, 2*(m.NX+m.NY)+extra)
				for i := range dst {
					dst[i] = math.NaN()
				}
				for i := range tab {
					tab[i] = math.Inf(1)
				}
				SmoothNoiseInto(dst, tab, m, sd, 99, 0x30DE1, key, key%2)
				for name, got := range map[string][]float64{"SmoothNoiseInto": dst, "SmoothNoise": SmoothNoise(m, sd, 99, 0x30DE1, key, key%2)} {
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("mesh %v key %d tab +%d: %s point %d is %g, the Norm loop gives %g",
								shape, key, extra, name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
