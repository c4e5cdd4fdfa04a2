// Command senkf-run performs an end-to-end assimilation over an ensemble
// generated by senkf-gen, using S-EnKF or one of the baselines, and reports
// RMSE improvement plus per-phase wall-clock breakdowns.
//
// Usage:
//
//	senkf-gen -dir /tmp/ens
//	senkf-run -dir /tmp/ens -algo senkf -nsdx 4 -nsdy 2 -layers 4 -ncg 2
//	senkf-run -dir /tmp/ens -algo penkf -nsdx 4 -nsdy 2
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
	log.SetPrefix("senkf-run: ")
	var (
		dir    = flag.String("dir", "", "member file directory from senkf-gen (required)")
		algo   = flag.String("algo", "senkf", "algorithm: senkf | penkf | lenkf | serial")
		nx     = flag.Int("nx", senkf.LaptopScale.NX, "grid points along longitude (must match -dir)")
		ny     = flag.Int("ny", senkf.LaptopScale.NY, "grid points along latitude (must match -dir)")
		nm     = flag.Int("members", senkf.LaptopScale.Members, "ensemble size N (must match -dir)")
		spread = flag.Float64("spread", senkf.LaptopScale.Spread, "generation spread (for truth/obs regeneration)")
		seed   = flag.Uint64("seed", senkf.LaptopScale.Seed, "generation seed (must match senkf-gen)")
		xi     = flag.Int("xi", senkf.LaptopScale.Xi, "localization half-width ξ")
		eta    = flag.Int("eta", senkf.LaptopScale.Eta, "localization half-height η")
		stride = flag.Int("obs-stride", senkf.LaptopScale.ObsStride, "observation stride")
		obsVar = flag.Float64("obs-var", senkf.LaptopScale.ObsVar, "observation error variance")
		nsdx   = flag.Int("nsdx", 4, "sub-domains along longitude")
		nsdy   = flag.Int("nsdy", 2, "sub-domains along latitude")
		layers = flag.Int("layers", 4, "S-EnKF stages L per sub-domain")
		ncg    = flag.Int("ncg", 2, "S-EnKF concurrent I/O groups")
		levels = flag.Int("levels", 1, "vertical levels per member file (must match senkf-gen -levels; senkf|penkf only)")
		solver = flag.String("solver", "ensemble-space", "local solver: ensemble-space | modified-cholesky | etkf")
		resil  = flag.Bool("resilient", false, "with -algo senkf: drop unreadable members and fail over instead of aborting")
		out    = flag.String("out", "", "optional directory to write the analysis ensemble to")
		prPlan = flag.Bool("print-plan", false, "print the compiled per-rank execution plan and exit without running (no ensemble needed)")

		faultsI   = flag.Float64("faults", 0, "inject a seeded fault plan of this intensity (0 = none, 1 = nominal): its stragglers always; with -resilient also its reader deaths and transient/outage read retries; never its file damage (the run does not write to the ensemble)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the -faults plan")
		stragSpec = flag.String("straggler", "", "inject one straggler, proc:factor (e.g. io/g0/r0:30)")
	)
	obs := senkf.RegisterRunFlags(flag.CommandLine, "senkf-run")
	flag.Parse()
	if *prPlan {
		// Dry run: compile and print the per-rank plan that both the real
		// engine and the simulated machine would interpret, then exit —
		// without minting a run or touching the ledger.
		cp, err := compileSpec(*algo, *nx, *ny, *xi, *eta, *nsdx, *nsdy, *nm, *layers, *ncg, *levels)
		if err != nil {
			log.Fatal(err)
		}
		if cp == nil {
			log.Fatalf("-print-plan needs -algo senkf|penkf|lenkf (got %q)", *algo)
		}
		if err := cp.Dump(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *dir == "" {
		flag.Usage()
		log.Fatal("missing -dir (point it at an ensemble directory from senkf-gen)")
	}
	if *resil && *algo != "senkf" {
		log.Fatalf("-resilient only applies to -algo senkf (got -algo %s)", *algo)
	}
	if *levels > 1 {
		if *algo != "senkf" && *algo != "penkf" {
			log.Fatalf("-levels %d only applies to -algo senkf|penkf (got -algo %s)", *levels, *algo)
		}
		if *resil {
			log.Fatal("-resilient does not support multilevel ensembles")
		}
	}

	// The closing "wall-clock phases" block is folded from the run's phase
	// spans, so the session keeps the events even without -trace.
	obs.KeepEvents()
	sess, err := obs.Start()
	if err != nil {
		log.Fatal(err)
	}

	if *algo != "serial" && !*resil {
		// Preflight: catch a missing or mismatched ensemble up front with an
		// actionable message instead of a mid-run rank failure. Resilient
		// runs skip this — tolerating damaged members is their job.
		info, err := senkf.InspectEnsemble(*dir, *nm)
		if err != nil {
			sess.Fatal(fmt.Errorf("ensemble preflight: %w", err))
		}
		if info.NX != *nx || info.NY != *ny {
			sess.Fatal(fmt.Errorf("ensemble in %s holds %dx%d fields but flags say %dx%d — fix -nx/-ny or regenerate with senkf-gen",
				*dir, info.NX, info.NY, *nx, *ny))
		}
		if info.Levels != *levels {
			sess.Fatal(fmt.Errorf("ensemble in %s holds %d vertical levels but flags say %d — fix -levels or regenerate with senkf-gen",
				*dir, info.Levels, *levels))
		}
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
	net, err := senkf.NewStridedNetwork(mesh, truth, *stride, *stride, *obsVar, *seed)
	if err != nil {
		sess.Fatal(err)
	}
	cfg := senkf.Config{Mesh: mesh, Radius: radius, N: *nm, Seed: *seed}
	switch *solver {
	case "ensemble-space":
		cfg.Solver = senkf.SolverEnsembleSpace
	case "modified-cholesky":
		cfg.Solver = senkf.SolverModifiedCholesky
	case "etkf":
		cfg.Solver = senkf.SolverETKF
	default:
		sess.Fatal(fmt.Errorf("unknown solver %q", *solver))
	}

	// Describe the run to the ledger: the compiled plan (when the algorithm
	// has one) yields the spec summary and content-addressed plan hash.
	cp, err := compileSpec(*algo, *nx, *ny, *xi, *eta, *nsdx, *nsdy, *nm, *layers, *ncg, *levels)
	if err != nil {
		sess.Fatal(err)
	}
	sess.Describe(*algo, "real", cp)

	var fp *senkf.FaultPlan
	if *faultsI > 0 {
		fp = senkf.GenerateFaultPlan(*faultSeed, *faultsI, senkf.FaultGeometry{
			OSTs: 8, NCg: *ncg, NSdy: *nsdy, L: *layers, N: *nm, Horizon: 1,
		})
	}
	if *stragSpec != "" {
		s, err := senkf.ParseStraggler(*stragSpec)
		if err != nil {
			sess.Fatal(err)
		}
		if fp == nil {
			fp = &senkf.FaultPlan{}
		}
		fp.Stragglers = append(fp.Stragglers, s)
	}
	if fp != nil {
		sess.SetFaults(fp)
	}

	problem := senkf.Problem{
		Cfg: cfg, Dir: *dir, Net: net,
		Tr: sess.Tracer, Obs: sess.Observer(), Faults: fp,
		Prof: sess.Labels(), Msgs: sess.MsgObserver(),
	}

	if *levels > 1 {
		// Multilevel run: one truth and observation network per vertical
		// level, the same compiled plan with the level dimension set, the
		// same shared engine underneath.
		truths, err := senkf.GenerateTruthLevels(mesh, senkf.DefaultFieldSpec, *levels, *seed)
		if err != nil {
			sess.Fatal(err)
		}
		nets := make([]*senkf.Network, *levels)
		for l := range nets {
			if nets[l], err = senkf.NewStridedNetwork(mesh, truths[l], *stride, *stride, *obsVar, *seed+uint64(l)); err != nil {
				sess.Fatal(err)
			}
		}
		problem.Nets = nets
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		var ml [][][]float64
		switch *algo {
		case "senkf":
			pl := senkf.Plan{Dec: dec, L: *layers, NCg: *ncg}
			fmt.Printf("S-EnKF: %d compute ranks + %d I/O ranks (%d groups, L=%d, %d levels)\n",
				pl.ComputeRanks(), pl.IORanks(), *ncg, *layers, *levels)
			ml, err = senkf.RunSEnKFMultiLevel(problem, pl)
		case "penkf":
			fmt.Printf("P-EnKF: %d ranks (block reading, %d levels)\n", dec.SubDomains(), *levels)
			ml, err = senkf.RunPEnKFMultiLevel(problem, dec)
		}
		if err != nil {
			sess.Fatal(err)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				sess.Fatal(err)
			}
			// The engine returns [level][member]; member files store
			// [member][level].
			byMember := make([][][]float64, *nm)
			for k := range byMember {
				byMember[k] = make([][]float64, *levels)
				for l := range byMember[k] {
					byMember[k][l] = ml[l][k]
				}
			}
			paths, err := senkf.WriteEnsembleLevels(*out, mesh, byMember)
			if err != nil {
				sess.Fatal(err)
			}
			fmt.Printf("wrote %d analysis members to %s\n", len(paths), *out)
		}
		var sum float64
		for l := range ml {
			sum += senkf.RMSE(senkf.EnsembleMean(ml[l]), truths[l])
		}
		fmt.Printf("analysis ensemble-mean RMSE vs truth (mean over %d levels): %.4f\n",
			*levels, sum/float64(*levels))
		printPhases(sess.Events())
		if err := sess.Finish(nil); err != nil {
			log.Fatal(err)
		}
		return
	}

	var analysis [][]float64
	switch *algo {
	case "serial":
		// Regenerate the background deterministically (identical to the
		// files senkf-gen wrote) and run the point-by-point reference.
		bg, err := senkf.GenerateEnsemble(mesh, truth, *nm, *spread, *seed)
		if err != nil {
			sess.Fatal(err)
		}
		analysis, err = senkf.SerialReference(cfg, bg, net)
		if err != nil {
			sess.Fatal(err)
		}
	case "senkf":
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		plan := senkf.Plan{Dec: dec, L: *layers, NCg: *ncg}
		fmt.Printf("S-EnKF: %d compute ranks + %d I/O ranks (%d groups, L=%d)\n",
			plan.ComputeRanks(), plan.IORanks(), *ncg, *layers)
		if *resil {
			res, err := senkf.RunSEnKFResilient(problem, plan, senkf.Resilience{Faults: fp})
			if err != nil {
				sess.Fatal(fmt.Errorf("resilient S-EnKF: %w", err))
			}
			analysis = res.Fields
			if res.Degraded {
				fmt.Printf("degraded run: %d/%d members assimilated", len(res.Survivors), *nm)
				for _, d := range res.Dropped {
					fmt.Printf("  member %d dropped (%s)", d.Member, d.Reason)
				}
				fmt.Printf("; %d failovers;", len(res.Failovers))
				if len(res.Dropped) > 0 {
					fmt.Printf(" inflation reweighted to %.4f\n", res.EffectiveConfig.Inflation)
				} else {
					fmt.Println(" inflation unchanged")
				}
			}
		} else if analysis, err = senkf.RunSEnKF(problem, plan); err != nil {
			sess.Fatal(err)
		}
	case "penkf":
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Printf("P-EnKF: %d ranks (block reading)\n", dec.SubDomains())
		analysis, err = senkf.RunPEnKF(problem, dec)
		if err != nil {
			sess.Fatal(err)
		}
	case "lenkf":
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Printf("L-EnKF: %d ranks (single reader)\n", dec.SubDomains())
		analysis, err = senkf.RunLEnKF(problem, dec)
		if err != nil {
			sess.Fatal(err)
		}
	default:
		sess.Fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			sess.Fatal(err)
		}
		paths, err := senkf.WriteEnsemble(*out, mesh, analysis)
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Printf("wrote %d analysis members to %s\n", len(paths), *out)
	}
	mean := senkf.EnsembleMean(analysis)
	fmt.Printf("analysis ensemble-mean RMSE vs truth: %.4f\n", senkf.RMSE(mean, truth))
	if *algo != "serial" {
		printPhases(sess.Events())
	}
	if err := sess.Finish(nil); err != nil {
		log.Fatal(err)
	}
}

// printPhases prints the per-phase wall-clock breakdown of a planned run.
func printPhases(events []senkf.TraceEvent) {
	io := senkf.PhaseTotals(events, senkf.IOPrefix)
	cp := senkf.PhaseTotals(events, senkf.ComputePrefix)
	fmt.Printf("wall-clock phases (summed across ranks):\n")
	fmt.Printf("  I/O ranks:     read %.3fs  comm %.3fs\n", io.Read, io.Comm)
	fmt.Printf("  compute ranks: read %.3fs  wait %.3fs  compute %.3fs  comm %.3fs\n",
		cp.Read, cp.Wait, cp.Compute, cp.Comm)
}

// compileSpec compiles the per-rank plan for the planned algorithms
// (nil for "serial", which has no plan).
func compileSpec(algo string, nx, ny, xi, eta, nsdx, nsdy, nm, layers, ncg, levels int) (*senkf.CompiledPlan, error) {
	mesh, err := senkf.NewMesh(nx, ny)
	if err != nil {
		return nil, err
	}
	radius, err := senkf.NewRadius(xi, eta)
	if err != nil {
		return nil, err
	}
	dec, err := senkf.NewDecomposition(mesh, nsdx, nsdy, radius)
	if err != nil {
		return nil, err
	}
	var spec senkf.AlgorithmSpec
	switch algo {
	case "senkf":
		spec = senkf.SEnKFSpec(dec, nm, layers, ncg)
	case "penkf":
		spec = senkf.PEnKFSpec(dec, nm)
	case "lenkf":
		spec = senkf.LEnKFSpec(dec, nm)
	default:
		return nil, nil
	}
	return senkf.CompilePlan(spec.WithLevels(levels))
}
