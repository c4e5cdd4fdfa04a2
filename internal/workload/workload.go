// Package workload generates the synthetic data sets the reproduction runs
// on: ocean-like smooth truth fields, background ensembles drawn around the
// truth (standing in for the "long-time ocean model integration" of §5.1),
// and the experiment presets — the paper-scale geometry
// (3600 × 1800 grid, 30 vertical levels, N = 120 members, 0.1° resolution)
// used by the simulated experiments, and laptop-scale presets used by the
// real executions and tests.
package workload

import (
	"fmt"
	"math"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// FieldSpec controls synthetic field generation.
type FieldSpec struct {
	Modes     int     // number of superposed smooth modes
	Amplitude float64 // overall field amplitude
	Noise     float64 // white-noise standard deviation added per point
}

// DefaultFieldSpec is a reasonable ocean-like texture.
var DefaultFieldSpec = FieldSpec{Modes: 6, Amplitude: 2.0, Noise: 0.05}

// Truth generates a deterministic smooth field over the mesh: a sum of
// low-wavenumber sinusoidal modes with seed-dependent phases, mimicking the
// large-scale structure of an ocean state (e.g. SSH or temperature).
func Truth(m grid.Mesh, spec FieldSpec, seed uint64) []float64 {
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

// Ensemble generates N background members around the truth: each member is
// truth plus a member-specific smooth perturbation plus small point noise.
// Perturbations are smooth so the ensemble carries spatial correlations —
// without them localized assimilation would be pointless.
func Ensemble(m grid.Mesh, truth []float64, n int, spread float64, seed uint64) ([][]float64, error) {
	if len(truth) != m.Points() {
		return nil, fmt.Errorf("workload: truth has %d points, mesh has %d", len(truth), m.Points())
	}
	if n < 2 {
		return nil, fmt.Errorf("workload: ensemble size must be at least 2, got %d", n)
	}
	if spread <= 0 {
		return nil, fmt.Errorf("workload: spread must be positive, got %g", spread)
	}
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
	return out, nil
}

// Preset bundles a full experiment geometry.
type Preset struct {
	Name      string
	NX, NY    int
	Members   int
	Levels    int // vertical levels folded into the per-point data volume
	Xi, Eta   int
	ObsStride int
	ObsVar    float64
	Spread    float64
	Seed      uint64
}

// PaperScale is the configuration of §5.1: 0.1° resolution data
// (3600 × 1800 mesh, 30 vertical levels, 8-byte values ⇒ h = 240 bytes per
// grid point) and 120 background ensemble members. Used analytically /
// in simulation only — the full X^b is ~186 GB.
var PaperScale = Preset{
	Name: "paper-0.1deg", NX: 3600, NY: 1800, Members: 120, Levels: 30,
	Xi: 16, Eta: 8, ObsStride: 12, ObsVar: 0.04, Spread: 0.5, Seed: 20190216,
}

// LaptopScale is a small geometry with the same structure for real
// end-to-end executions on one machine.
var LaptopScale = Preset{
	Name: "laptop", NX: 96, NY: 48, Members: 16, Levels: 1,
	Xi: 4, Eta: 2, ObsStride: 3, ObsVar: 0.01, Spread: 1.5, Seed: 20190216,
}

// TestScale is tiny, for unit and integration tests.
var TestScale = Preset{
	Name: "test", NX: 24, NY: 12, Members: 20, Levels: 1,
	Xi: 2, Eta: 2, ObsStride: 2, ObsVar: 0.01, Spread: 1.5, Seed: 20190216,
}

// Mesh returns the preset's mesh.
func (p Preset) Mesh() (grid.Mesh, error) { return grid.NewMesh(p.NX, p.NY) }

// Radius returns the preset's localization radius.
func (p Preset) Radius() grid.Radius { return grid.Radius{Xi: p.Xi, Eta: p.Eta} }

// BytesPerPoint returns h of Table 1: the per-grid-point data volume
// (vertical levels × 8-byte float).
func (p Preset) BytesPerPoint() int { return p.Levels * 8 }

// SmoothNoise returns a deterministic smooth random field — a few random
// low-wavenumber modes plus a little white noise — with point-wise standard
// deviation on the order of sd. Used as spatially correlated stochastic
// model error in cycled assimilation: only correlated errors can be
// corrected at unobserved points.
//
// Each mode amp·sin(kx·x + ky·y + phase) is evaluated separably, as
// amp·sin(kx·x)·cos(ky·y + phase) + amp·cos(kx·x)·sin(ky·y + phase) from one
// sine/cosine table per axis: NX + NY math.Sincos calls per mode instead of
// NX·NY math.Sin calls. The value differs from the direct formula in the last
// bits (the test pins the distance), never between two calls with equal
// arguments.
func SmoothNoise(m grid.Mesh, sd float64, seed uint64, keys ...int) []float64 {
	s := linalg.KeyedStream(seed, append([]int{0x5A00F}, keys...)...)
	const modes = 4
	f := make([]float64, m.Points())
	// One table set, refilled per mode; the modes accumulate into f in draw
	// order, the order the direct per-point sum adds them in.
	tab := make([]float64, 2*(m.NX+m.NY))
	ax, bx := tab[:m.NX], tab[m.NX:2*m.NX]
	sy, cy := tab[2*m.NX:][:m.NY], tab[2*m.NX+m.NY:]
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
			row, sinY, cosY := f[y*m.NX:][:m.NX], sy[y], cy[y]
			for x := range row {
				row[x] += ax[x]*cosY + bx[x]*sinY
			}
		}
	}
	ws := linalg.KeyedStream(seed, append([]int{0x5A010}, keys...)...)
	for i := range f {
		f[i] += 0.15 * sd * ws.Norm()
	}
	return f
}

// levelSeed derives an independent generation seed for a vertical level.
func levelSeed(seed uint64, level int) uint64 {
	return linalg.KeyedStream(seed, 0x1E7E1, level).Uint64()
}

// TruthLevels generates one truth field per vertical level, each an
// independent smooth field (the vertical structure of the §5.1 ocean state
// with its 30 levels).
func TruthLevels(m grid.Mesh, spec FieldSpec, levels int, seed uint64) ([][]float64, error) {
	if levels <= 0 {
		return nil, fmt.Errorf("workload: level count must be positive, got %d", levels)
	}
	out := make([][]float64, levels)
	for l := range out {
		out[l] = Truth(m, spec, levelSeed(seed, l))
	}
	return out, nil
}

// EnsembleLevels generates n members of a multi-level state:
// result[k][l] is member k's field at level l.
func EnsembleLevels(m grid.Mesh, truths [][]float64, n int, spread float64, seed uint64) ([][][]float64, error) {
	if len(truths) == 0 {
		return nil, fmt.Errorf("workload: no truth levels")
	}
	out := make([][][]float64, n)
	for k := range out {
		out[k] = make([][]float64, len(truths))
	}
	for l, truth := range truths {
		members, err := Ensemble(m, truth, n, spread, levelSeed(seed, l))
		if err != nil {
			return nil, fmt.Errorf("workload: level %d: %w", l, err)
		}
		for k := range members {
			out[k][l] = members[k]
		}
	}
	return out, nil
}
