// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 1, 5, 9, 10, 11, 12, 13 — the paper has no numeric tables; Table
// 1 is notation). Each figure benchmark regenerates the figure's series on
// the reduced-scale suite so the whole harness runs in seconds; the
// *_PaperScale variants run the full 2,000–12,000-processor sweep of §5 and
// report the headline numbers (speedup at 12,000 cores, scaling
// efficiency, overlap percentage) as custom metrics.
//
// Micro-benchmarks of the underlying kernels (local analysis, Cholesky,
// bar/block file reads, message passing, the event engine, the auto-tuner)
// follow the figure benches.
package senkf

import (
	"fmt"
	"os"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/mpi"
	"senkf/internal/obs"
	"senkf/internal/sim"
	"senkf/internal/workload"
)

// --- Figure benchmarks (reduced scale) --------------------------------

func benchFigure(b *testing.B, run func(s *FigureSuite) (Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := QuickFigures()
		f, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig01_PEnKFIOPercentage(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig01() })
}

func BenchmarkFig05_BlockReadingScaling(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig05() })
}

func BenchmarkFig09_PhaseBreakdown(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig09() })
}

func BenchmarkFig10_ConcurrentAccess(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig10() })
}

func BenchmarkFig11_OverlapPercentage(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig11() })
}

func BenchmarkFig12_CostModelValidation(b *testing.B) {
	benchFigure(b, func(s *FigureSuite) (Figure, error) { return s.Fig12() })
}

func BenchmarkFig13_StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := QuickFigures()
		f, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		// Report the headline speedup as a custom metric.
		for _, ser := range f.Series {
			if ser.Label == "speedup" && len(ser.Y) > 0 {
				b.ReportMetric(ser.Y[len(ser.Y)-1], "speedup@max-np")
			}
		}
	}
}

// BenchmarkFig13_StrongScaling_PaperScale runs the full §5 strong-scaling
// sweep: P-EnKF and auto-tuned S-EnKF at 2,000–12,000 simulated processors
// over the 0.1° problem. The paper reports 3x at 12,000 cores.
func BenchmarkFig13_StrongScaling_PaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		s := PaperFigures()
		f, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		for _, ser := range f.Series {
			if ser.Label == "speedup" && len(ser.Y) > 0 {
				b.ReportMetric(ser.Y[len(ser.Y)-1], "speedup@12000")
			}
		}
		if i == 0 && os.Getenv("SENKF_PRINT_FIGURES") != "" {
			f.WriteTable(os.Stdout)
		}
	}
}

// BenchmarkFig09_PhaseBreakdown_PaperScale reports the 12,000-core phase
// structure: S-EnKF's first-stage share and overlap fraction.
func BenchmarkFig09_PhaseBreakdown_PaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale sweep skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		s := PaperFigures()
		res, _, err := s.SEnKFAt(12000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.OverlapFraction, "overlap%")
		b.ReportMetric(100*res.FirstStage/res.Runtime, "first-stage%")
	}
}

// --- Real-execution benchmarks (ablations on real files) ---------------

// benchProblem builds a real laptop-scale problem once per benchmark.
func benchProblem(b *testing.B) (Problem, Decomposition) {
	b.Helper()
	ps := workload.TestScale
	mesh, err := NewMesh(ps.NX, ps.NY)
	if err != nil {
		b.Fatal(err)
	}
	truth := GenerateTruth(mesh, DefaultFieldSpec, ps.Seed)
	members, err := GenerateEnsemble(mesh, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := WriteEnsemble(dir, mesh, members); err != nil {
		b.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	radius := grid.Radius{Xi: ps.Xi, Eta: ps.Eta}
	cfg := Config{Mesh: mesh, Radius: radius, N: ps.Members, Seed: ps.Seed}
	dec, err := NewDecomposition(mesh, 4, 2, radius)
	if err != nil {
		b.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Net: net}, dec
}

func BenchmarkRealSEnKF(b *testing.B) {
	p, dec := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSEnKF(p, Plan{Dec: dec, L: 3, NCg: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealPEnKF(b *testing.B) {
	p, dec := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPEnKF(p, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealLEnKF(b *testing.B) {
	p, dec := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLEnKF(p, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialReference(b *testing.B) {
	ps := workload.TestScale
	mesh, _ := NewMesh(ps.NX, ps.NY)
	truth := GenerateTruth(mesh, DefaultFieldSpec, ps.Seed)
	members, err := GenerateEnsemble(mesh, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewStridedNetwork(mesh, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Mesh: mesh, Radius: grid.Radius{Xi: ps.Xi, Eta: ps.Eta}, N: ps.Members, Seed: ps.Seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerialReference(cfg, members, net); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: bar reading vs block reading on real files --------------

func benchReadFiles(b *testing.B, bar bool) {
	mesh, _ := grid.NewMesh(256, 128)
	field := make([]float64, mesh.Points())
	for i := range field {
		field[i] = float64(i)
	}
	dir := b.TempDir()
	path := ensio.MemberPath(dir, 0)
	if err := ensio.WriteMember(path, ensio.Header{NX: mesh.NX, NY: mesh.NY}, field); err != nil {
		b.Fatal(err)
	}
	// Equal payload (8192 values) either way; the bar needs one addressing
	// operation, the narrow block needs one per row (128).
	block := grid.Box{X0: 32, X1: 96, Y0: 0, Y1: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mf, err := ensio.OpenMember(path)
		if err != nil {
			b.Fatal(err)
		}
		if bar {
			if _, err := mf.ReadBar(0, 32); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := mf.ReadBlock(block); err != nil {
				b.Fatal(err)
			}
		}
		mf.Close()
	}
}

func BenchmarkAblationBarRead(b *testing.B)   { benchReadFiles(b, true) }
func BenchmarkAblationBlockRead(b *testing.B) { benchReadFiles(b, false) }

// --- Kernel micro-benchmarks -------------------------------------------

func BenchmarkLocalAnalysisPoint(b *testing.B) {
	ps := workload.TestScale
	mesh, _ := grid.NewMesh(ps.NX, ps.NY)
	truth := workload.Truth(mesh, workload.DefaultFieldSpec, ps.Seed)
	members, err := workload.Ensemble(mesh, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	net, err := obs.StridedNetwork(mesh, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := enkf.Config{Mesh: mesh, Radius: grid.Radius{Xi: ps.Xi, Eta: ps.Eta}, N: ps.Members, Seed: ps.Seed}
	blk := &enkf.Block{Box: grid.Box{X0: 0, X1: mesh.NX, Y0: 0, Y1: mesh.NY}, Data: members}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.AnalyzePoint(blk, net.Obs, 10, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeBoxDense is the local analysis of one sub-domain of the
// benchmark's dense workload (72×36, N=32, radius (4,2), every second point
// observed, 4×2 sub-domains) from its expansion block: what the enkf.box_*
// probes of benchmark/ time, under go test -bench.
func BenchmarkAnalyzeBoxDense(b *testing.B) {
	const seed = 1
	mesh, _ := grid.NewMesh(72, 36)
	cfg := enkf.Config{Mesh: mesh, Radius: grid.Radius{Xi: 4, Eta: 2}, N: 32, Seed: seed}
	truth := workload.Truth(mesh, workload.DefaultFieldSpec, seed)
	members, err := workload.Ensemble(mesh, truth, cfg.N, 1.5, seed)
	if err != nil {
		b.Fatal(err)
	}
	net, err := obs.StridedNetwork(mesh, truth, 2, 2, 0.01, seed)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := grid.NewDecomposition(mesh, 4, 2, cfg.Radius)
	if err != nil {
		b.Fatal(err)
	}
	full := &enkf.Block{Box: grid.Box{X0: 0, X1: mesh.NX, Y0: 0, Y1: mesh.NY}, Data: members}
	blk, err := full.SubBlock(dec.Expansion(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	cands, sub := net.InBox(blk.Box), dec.SubDomain(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.AnalyzeBox(blk, cands, sub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky64(b *testing.B) {
	s := linalg.NewStream(1)
	a := linalg.NewMatrix(64, 66)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	spd := linalg.AAT(a)
	for i := 0; i < 64; i++ {
		spd.Data[i*64+i] += 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Cholesky(spd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModifiedCholesky(b *testing.B) {
	s := linalg.NewStream(2)
	u := linalg.NewMatrix(25, 40)
	for i := range u.Data {
		u.Data[i] = s.Norm()
	}
	linalg.CenterRows(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.ModifiedCholeskyPrecision(u, 5, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	s := linalg.NewStream(3)
	x := linalg.NewMatrix(64, 64)
	y := linalg.NewMatrix(64, 64)
	for i := range x.Data {
		x.Data[i] = s.Norm()
		y.Data[i] = s.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIPingPong(b *testing.B) {
	payload := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(2)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			const rounds = 100
			if c.Rank() == 0 {
				for r := 0; r < rounds; r++ {
					if err := c.Send(1, 0, nil, payload); err != nil {
						return err
					}
					if _, err := c.Recv(1, 1); err != nil {
						return err
					}
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				m, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				if err := c.Send(0, 1, nil, m.Data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimEngineEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		r := sim.NewResource(env, "disk", 4)
		for p := 0; p < 1000; p++ {
			env.Go(fmt.Sprintf("p%d", p), func(pr *sim.Proc) {
				for j := 0; j < 10; j++ {
					r.Acquire(pr)
					pr.Sleep(0.001)
					r.Release()
				}
			})
		}
		if _, err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoTunePaperScale(b *testing.B) {
	p := DefaultMachine().P
	tc := costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.AutoTuneConstrained(12000, 0.001, tc); !ok {
			b.Fatal("no configuration")
		}
	}
}
