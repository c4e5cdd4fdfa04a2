// Command senkf-verify runs the correctness triangle on a generated
// problem: the serial reference analysis, L-EnKF, P-EnKF and S-EnKF are
// executed over the same member files and compared bit for bit. Exits
// non-zero when any implementation disagrees — the smoke test for any
// modification to the assimilation or the parallel schedules.
//
// Usage:
//
//	senkf-verify                 # laptop-scale problem, default layout
//	senkf-verify -nx 48 -ny 24 -members 12 -nsdx 4 -nsdy 2 -layers 3 -ncg 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"senkf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("senkf-verify: ")
	var (
		nx      = flag.Int("nx", 48, "grid points along longitude")
		ny      = flag.Int("ny", 24, "grid points along latitude")
		members = flag.Int("members", 12, "ensemble size N")
		xi      = flag.Int("xi", 3, "localization half-width ξ")
		eta     = flag.Int("eta", 2, "localization half-height η")
		nsdx    = flag.Int("nsdx", 4, "sub-domains along longitude")
		nsdy    = flag.Int("nsdy", 2, "sub-domains along latitude")
		layers  = flag.Int("layers", 3, "S-EnKF stages L")
		ncg     = flag.Int("ncg", 2, "S-EnKF concurrent groups")
		offGrid = flag.Bool("off-grid", false, "use off-grid (bilinear) observations")
		seed    = flag.Uint64("seed", 7, "generation seed")
	)
	obs := senkf.RegisterBasicRunFlags(flag.CommandLine, "senkf-verify")
	flag.Parse()
	sess, err := obs.Start()
	if err != nil {
		log.Fatal(err)
	}

	mesh, err := senkf.NewMesh(*nx, *ny)
	if err != nil {
		sess.Fatal(err)
	}
	radius, err := senkf.NewRadius(*xi, *eta)
	if err != nil {
		sess.Fatal(err)
	}
	truth := senkf.GenerateTruth(mesh, senkf.DefaultFieldSpec, *seed)
	bg, err := senkf.GenerateEnsemble(mesh, truth, *members, 1.5, *seed)
	if err != nil {
		sess.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "senkf-verify")
	if err != nil {
		sess.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := senkf.WriteEnsemble(dir, mesh, bg); err != nil {
		sess.Fatal(err)
	}
	var net *senkf.Network
	if *offGrid {
		net, err = senkf.NewOffGridNetwork(mesh, truth, mesh.Points()/8, 0.01, *seed)
	} else {
		net, err = senkf.NewStridedNetwork(mesh, truth, 3, 3, 0.01, *seed)
	}
	if err != nil {
		sess.Fatal(err)
	}

	failures := 0
	for _, solver := range []senkf.Solver{senkf.SolverEnsembleSpace, senkf.SolverModifiedCholesky, senkf.SolverETKF} {
		cfg := senkf.Config{Mesh: mesh, Radius: radius, N: *members, Seed: *seed, Solver: solver}
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		ref, err := senkf.SerialReference(cfg, bg, net)
		if err != nil {
			sess.Fatal(err)
		}
		problem := senkf.Problem{Cfg: cfg, Dir: dir, Net: net}

		check := func(name string, run func() ([][]float64, error)) {
			got, err := run()
			if err != nil {
				fmt.Printf("  %-8s FAILED to run: %v\n", name, err)
				failures++
				return
			}
			var maxDiff float64
			for k := range ref {
				for i := range ref[k] {
					d := got[k][i] - ref[k][i]
					if d < 0 {
						d = -d
					}
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
			status := "OK (bit-exact)"
			if maxDiff != 0 {
				status = fmt.Sprintf("MISMATCH (max |diff| = %g)", maxDiff)
				failures++
			}
			fmt.Printf("  %-8s %s\n", name, status)
		}

		fmt.Printf("solver %v:\n", solver)
		check("L-EnKF", func() ([][]float64, error) { return senkf.RunLEnKF(problem, dec) })
		check("P-EnKF", func() ([][]float64, error) { return senkf.RunPEnKF(problem, dec) })
		check("S-EnKF", func() ([][]float64, error) {
			return senkf.RunSEnKF(problem, senkf.Plan{Dec: dec, L: *layers, NCg: *ncg})
		})
		// The resilient runner on a healthy ensemble with no fault plan must
		// land on the same corner of the triangle, bit for bit.
		check("S-EnKF/R", func() ([][]float64, error) {
			res, err := senkf.RunSEnKFResilient(problem,
				senkf.Plan{Dec: dec, L: *layers, NCg: *ncg}, senkf.Resilience{})
			if err != nil {
				return nil, err
			}
			return res.Fields, nil
		})
	}
	// Multilevel corner: the same engine with the level dimension set.
	// S-EnKF and P-EnKF over a 3-level ensemble must agree bit for bit
	// with the serial reference applied level by level.
	const levels = 3
	truths, err := senkf.GenerateTruthLevels(mesh, senkf.DefaultFieldSpec, levels, *seed)
	if err != nil {
		sess.Fatal(err)
	}
	mlBg, err := senkf.GenerateEnsembleLevels(mesh, truths, *members, 1.5, *seed)
	if err != nil {
		sess.Fatal(err)
	}
	mlDir, err := os.MkdirTemp("", "senkf-verify-ml")
	if err != nil {
		sess.Fatal(err)
	}
	defer os.RemoveAll(mlDir)
	if _, err := senkf.WriteEnsembleLevels(mlDir, mesh, mlBg); err != nil {
		sess.Fatal(err)
	}
	nets := make([]*senkf.Network, levels)
	for l := range nets {
		if nets[l], err = senkf.NewStridedNetwork(mesh, truths[l], 3, 3, 0.01, *seed+uint64(l)); err != nil {
			sess.Fatal(err)
		}
	}
	mlCfg := senkf.Config{Mesh: mesh, Radius: radius, N: *members, Seed: *seed, Solver: senkf.SolverEnsembleSpace}
	mlDec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
	if err != nil {
		sess.Fatal(err)
	}
	refML := make([][][]float64, levels)
	for l := 0; l < levels; l++ {
		bgL := make([][]float64, *members)
		for k := range bgL {
			bgL[k] = mlBg[k][l]
		}
		if refML[l], err = senkf.SerialReference(mlCfg, bgL, nets[l]); err != nil {
			sess.Fatal(err)
		}
	}
	mlp := senkf.Problem{Cfg: mlCfg, Dir: mlDir, Nets: nets}
	checkML := func(name string, run func() ([][][]float64, error)) {
		got, err := run()
		if err != nil {
			fmt.Printf("  %-8s FAILED to run: %v\n", name, err)
			failures++
			return
		}
		var maxDiff float64
		for l := range refML {
			for k := range refML[l] {
				for i := range refML[l][k] {
					d := got[l][k][i] - refML[l][k][i]
					if d < 0 {
						d = -d
					}
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
		status := "OK (bit-exact)"
		if maxDiff != 0 {
			status = fmt.Sprintf("MISMATCH (max |diff| = %g)", maxDiff)
			failures++
		}
		fmt.Printf("  %-8s %s\n", name, status)
	}
	fmt.Printf("multilevel (%d levels, solver %v):\n", levels, mlCfg.Solver)
	checkML("S-EnKF", func() ([][][]float64, error) {
		return senkf.RunSEnKFMultiLevel(mlp, senkf.Plan{Dec: mlDec, L: *layers, NCg: *ncg})
	})
	checkML("P-EnKF", func() ([][][]float64, error) {
		return senkf.RunPEnKFMultiLevel(mlp, mlDec)
	})

	if failures > 0 {
		sess.Fatal(fmt.Errorf("%d check(s) failed", failures))
	}
	fmt.Println("all implementations agree with the serial reference")
	if err := sess.Finish(nil); err != nil {
		log.Fatal(err)
	}
}
