// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 1, 5, 9, 10, 11, 12, 13 — the paper has no numeric tables; Table
// 1 is notation). Each figure benchmark regenerates the figure's series on
// the reduced-scale suite so the whole harness runs in seconds; the
// *_PaperScale variants run the full 2,000–12,000-processor sweep of §5 and
// report the headline numbers (speedup at 12,000 cores, scaling
// efficiency, overlap percentage) as custom metrics.
//
// Wall-clock cost per layer — the engines end to end, the kernels, file
// reads, message passing, the event engine, the auto-tuner — is measured by
// the probes of benchmark/, in one versioned record; the one micro-benchmark
// kept here is BenchmarkAnalyzeBoxDense, the -cpu 1 harness the EXPERIMENTS
// recipes profile the local solver with.
package senkf

import (
	"os"
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/obs"
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

// --- The local analysis of one box --------------------------------------

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
