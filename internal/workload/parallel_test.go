package workload

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// serialTruth is Truth as a serial loop over the mesh, every noise stream
// keyed from the seed in full: the verbatim oracle of the parallel rows.
func serialTruth(m grid.Mesh, spec FieldSpec, seed uint64) []float64 {
	s := linalg.KeyedStream(seed, 0x7A07)
	type mode struct {
		kx, ky, phase, amp float64
	}
	modes := make([]mode, spec.Modes)
	for i := range modes {
		modes[i] = mode{
			kx:    float64(s.Intn(4)+1) * 2 * math.Pi / float64(m.NX),
			ky:    float64(s.Intn(4)+1) * 2 * math.Pi / float64(m.NY),
			phase: s.Float64() * 2 * math.Pi,
			amp:   spec.Amplitude * (0.5 + s.Float64()) / float64(spec.Modes),
		}
	}
	f := make([]float64, m.Points())
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			var v float64
			for _, md := range modes {
				v += md.amp * math.Sin(md.kx*float64(x)+md.ky*float64(y)+md.phase)
			}
			if spec.Noise > 0 {
				ns := linalg.KeyedStream(seed, 0x7A08, x, y)
				v += spec.Noise * ns.Norm()
			}
			f[m.Index(x, y)] = v
		}
	}
	return f
}

// serialEnsemble is Ensemble as a serial loop over members, every point
// stream keyed from the seed in full: the verbatim oracle of the parallel
// members.
func serialEnsemble(m grid.Mesh, truth []float64, n int, spread float64, seed uint64) [][]float64 {
	out := make([][]float64, n)
	for k := 0; k < n; k++ {
		s := linalg.KeyedStream(seed, 0xE45, k)
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
				amp:   spread * (0.5 + s.Float64()) / modes,
			}
		}
		f := make([]float64, m.Points())
		for y := 0; y < m.NY; y++ {
			for x := 0; x < m.NX; x++ {
				v := truth[m.Index(x, y)]
				for _, md := range ms {
					v += md.amp * math.Sin(md.kx*float64(x)+md.ky*float64(y)+md.phase)
				}
				ps := linalg.KeyedStream(seed, 0xE46, k, x, y)
				v += 0.1 * spread * ps.Norm()
				f[m.Index(x, y)] = v
			}
		}
		out[k] = f
	}
	return out
}

// sameField fails unless got and want hold the same bits.
func sameField(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: point %d is %v, the serial loop gives %v", what, i, got[i], v)
		}
	}
}

// Truth and Ensemble fan their rows and members out over GOMAXPROCS and key
// each member's point streams once: the fields must be the serial loop's bits
// on any number of cores, over meshes of one point, one row, one column and
// prime sides, several seeds, field specs and member counts.
func TestParallelGenerationIsTheSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	meshes := [][2]int{{1, 1}, {1, 9}, {13, 1}, {7, 11}, {31, 17}, {40, 23}}
	specs := []FieldSpec{DefaultFieldSpec, {Modes: 3, Amplitude: 1, Noise: 0}, {Modes: 1, Amplitude: 0.5, Noise: 0.3}}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for i, side := range meshes {
			m, err := grid.NewMesh(side[0], side[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 20190216, 1<<63 + uint64(i)} {
				spec := specs[int(seed%uint64(len(specs)))]
				what := fmt.Sprintf("GOMAXPROCS %d, mesh %dx%d, seed %d", procs, m.NX, m.NY, seed)
				truth := Truth(m, spec, seed)
				sameField(t, what+": truth", truth, serialTruth(m, spec, seed))
				for _, n := range []int{2, 5, 16} {
					got, err := Ensemble(m, truth, n, 1.5, seed)
					if err != nil {
						t.Fatal(err)
					}
					want := serialEnsemble(m, truth, n, 1.5, seed)
					if len(got) != n {
						t.Fatalf("%s: %d members, want %d", what, len(got), n)
					}
					for k := range want {
						sameField(t, fmt.Sprintf("%s: member %d of %d", what, k, n), got[k], want[k])
					}
				}
			}
		}
	}
}
