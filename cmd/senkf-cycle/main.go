// Command senkf-cycle runs a sequential (cycled) data assimilation
// experiment: an advection–diffusion model integrates the truth and an
// imperfect ensemble forward; every cycle, observations of the evolving
// truth are assimilated by the chosen analyzer (serial reference or the
// real parallel S-EnKF/P-EnKF over member files), and a free-running
// ensemble is tracked as the control.
//
// Usage:
//
//	senkf-cycle -cycles 10
//	senkf-cycle -cycles 20 -analyzer senkf -nsdx 4 -nsdy 2 -layers 3 -ncg 2
//	senkf-cycle -cycles 20 -analyzer senkf -monitor -profile localhost:9464
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"senkf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("senkf-cycle: ")
	var (
		nx       = flag.Int("nx", 48, "grid points along longitude")
		ny       = flag.Int("ny", 24, "grid points along latitude")
		members  = flag.Int("members", 20, "ensemble size N")
		xi       = flag.Int("xi", 3, "localization half-width ξ")
		eta      = flag.Int("eta", 2, "localization half-height η")
		cycles   = flag.Int("cycles", 10, "number of forecast-analysis cycles")
		steps    = flag.Int("steps", 3, "model steps per cycle")
		cx       = flag.Float64("cx", 0.4, "zonal velocity (cells/step)")
		cy       = flag.Float64("cy", 0.2, "meridional velocity (cells/step)")
		nu       = flag.Float64("nu", 0.02, "diffusivity")
		obsVar   = flag.Float64("obs-var", 1e-4, "observation error variance")
		modelErr = flag.Float64("model-error", 0.2, "stochastic model error SD")
		inflate  = flag.Float64("inflation", 1.1, "multiplicative covariance inflation")
		analyzer = flag.String("analyzer", "serial", "analysis path: serial | senkf | penkf")
		nsdx     = flag.Int("nsdx", 4, "sub-domains along longitude (parallel analyzers)")
		nsdy     = flag.Int("nsdy", 2, "sub-domains along latitude (parallel analyzers)")
		layers   = flag.Int("layers", 3, "S-EnKF stages L")
		ncg      = flag.Int("ncg", 2, "S-EnKF concurrent groups")
		seed     = flag.Uint64("seed", 2019, "experiment seed")

		stragSpec = flag.String("straggler", "", "inject one straggler into every cycle's analysis, proc:factor (e.g. io/g0/r0:30)")
		resil     = flag.Bool("resilient", false, "with -analyzer senkf: drop unreadable members instead of aborting; per-cycle degraded-member counts feed the monitor")

		ckptDir   = flag.String("checkpoint-dir", "", "cut crash-consistent checkpoints of the full cycled state into this directory")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every N cycles")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "retain the newest K checkpoints (0 keeps all)")
		resume    = flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (falls back past corrupted ones)")
		killAfter = flag.Int("kill-after-cycle", -1, "fault injection: kill the process (exit 137, no graceful landing) right after this cycle's checkpoint")
	)
	obs := senkf.RegisterRunFlags(flag.CommandLine, "senkf-cycle")
	flag.Parse()
	if obs.MonitorOn() && *analyzer != "senkf" {
		log.Fatal("-monitor needs -analyzer senkf (plan conformance is defined by the compiled S-EnKF plan)")
	}
	if (obs.TraceOut() != "" || obs.CountersOn()) && *analyzer == "serial" {
		log.Fatal("-trace/-counters need a parallel analyzer (senkf or penkf)")
	}
	if *resil && *analyzer != "senkf" {
		log.Fatalf("-resilient only applies to -analyzer senkf (got -analyzer %s)", *analyzer)
	}
	if (*resume || *killAfter >= 0) && *ckptDir == "" {
		log.Fatal("-resume and -kill-after-cycle need -checkpoint-dir")
	}
	if *ckptEvery <= 0 {
		log.Fatal("-checkpoint-every must be positive")
	}

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
	fm, err := senkf.NewForwardModel(mesh, *cx, *cy, *nu, 1.0)
	if err != nil {
		sess.Fatal(err)
	}
	truth := senkf.GenerateTruth(mesh, senkf.DefaultFieldSpec, *seed)
	ensemble, err := senkf.GenerateEnsemble(mesh, truth, *members, 1.5, *seed)
	if err != nil {
		sess.Fatal(err)
	}

	var fp *senkf.FaultPlan
	if *stragSpec != "" {
		s, err := senkf.ParseStraggler(*stragSpec)
		if err != nil {
			sess.Fatal(err)
		}
		fp = &senkf.FaultPlan{Stragglers: []senkf.Straggler{s}}
		sess.SetFaults(fp)
	}
	if *killAfter >= 0 {
		if fp == nil {
			fp = &senkf.FaultPlan{}
		}
		fp.Crash = &senkf.CycleCrash{Cycle: *killAfter}
		sess.SetFaults(fp)
	}

	// ckptCfg is the experiment identity a checkpoint must match to be
	// resumable: the physics, geometry and seeding — deliberately NOT the
	// member count (ensembles are elastic across resumes) and not the
	// analyzer (all analyzers produce identical statistics).
	ckptCfg := map[string]string{
		"nx": strconv.Itoa(*nx), "ny": strconv.Itoa(*ny),
		"xi": strconv.Itoa(*xi), "eta": strconv.Itoa(*eta),
		"steps": strconv.Itoa(*steps),
		"cx":    fmt.Sprintf("%g", *cx), "cy": fmt.Sprintf("%g", *cy),
		"nu":      fmt.Sprintf("%g", *nu),
		"obs-var": fmt.Sprintf("%g", *obsVar), "model-error": fmt.Sprintf("%g", *modelErr),
		"inflation":    fmt.Sprintf("%g", *inflate),
		"obs-stride-x": "2", "obs-stride-y": "2",
		"seed": strconv.FormatUint(*seed, 10),
		// The cycle driver is single-level; pinning the level count keeps a
		// multilevel checkpoint tree from silently resuming here (and vice
		// versa) once cycled multilevel runs exist.
		"levels": "1",
	}

	st := senkf.CycleState{Truth: truth, Ensemble: ensemble}
	if *resume {
		l, skipped, err := senkf.LatestCheckpoint(*ckptDir)
		if err != nil {
			sess.Fatal(err)
		}
		for _, sk := range skipped {
			sess.Log.Warn("skipped invalid checkpoint", "path", sk.Path, "err", sk.Err.Error())
		}
		if l == nil {
			sess.Fatal(fmt.Errorf("no valid checkpoint in %s", *ckptDir))
		}
		if d := senkf.DigestCheckpointConfig(ckptCfg); l.Manifest.ConfigDigest != d {
			sess.Fatal(fmt.Errorf("checkpoint %s was cut under a different experiment config (digest %s, flags give %s)",
				l.Dir, l.Manifest.ConfigDigest, d))
		}
		st, err = senkf.RestoreCheckpoint(l)
		if err != nil {
			sess.Fatal(err)
		}
		if st.NextCycle >= *cycles {
			sess.Fatal(fmt.Errorf("checkpoint already covers cycle %d; -cycles %d leaves nothing to resume", st.NextCycle-1, *cycles))
		}
		// Elastic resume: a different -members resamples both ensembles
		// deterministically, preserving the mean point-wise variance.
		if *members != len(st.Ensemble) {
			was := len(st.Ensemble)
			st.Ensemble, err = senkf.ResizeEnsemble(mesh, st.Ensemble, *members, *seed^0xE15A57)
			if err != nil {
				sess.Fatal(err)
			}
			st.Free, err = senkf.ResizeEnsemble(mesh, st.Free, *members, *seed^0xF2EE)
			if err != nil {
				sess.Fatal(err)
			}
			sess.Note("resized-from", strconv.Itoa(was))
			sess.Log.Info("elastic resume", "members_was", was, "members_now", *members)
		}
		sess.SetParent(l.State.RunID, st.NextCycle)
	}

	// lastDegraded carries each cycle's dropped-member count from the
	// resilient analyzer to the per-cycle series.
	lastDegraded := 0
	var an senkf.Analyzer
	switch *analyzer {
	case "serial":
		sess.Describe("serial", "real", nil)
		an = senkf.SerialAnalyzer()
	case "senkf", "penkf":
		dec, err := senkf.NewDecomposition(mesh, *nsdx, *nsdy, radius)
		if err != nil {
			sess.Fatal(err)
		}
		// Describe the per-cycle analysis plan to the ledger (every cycle
		// executes the same compiled plan).
		var spec senkf.AlgorithmSpec
		if *analyzer == "senkf" {
			spec = senkf.SEnKFSpec(dec, *members, *layers, *ncg)
		} else {
			spec = senkf.PEnKFSpec(dec, *members)
		}
		if cp, err := senkf.CompilePlan(spec); err == nil {
			sess.Describe(*analyzer, "real", cp)
		} else {
			sess.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "senkf-cycle")
		if err != nil {
			sess.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if *analyzer == "senkf" {
			tpl := senkf.Problem{Dir: dir, Tr: sess.Tracer, Obs: sess.Observer(), Faults: fp, Prof: sess.Labels(), Msgs: sess.MsgObserver()}
			pl := senkf.Plan{Dec: dec, L: *layers, NCg: *ncg}
			if *resil {
				an = func(cfg senkf.Config, background [][]float64, net *senkf.Network) ([][]float64, error) {
					if _, err := senkf.WriteEnsemble(dir, cfg.Mesh, background); err != nil {
						return nil, err
					}
					p := tpl
					p.Cfg, p.Net = cfg, net
					res, err := senkf.RunSEnKFResilient(p, pl, senkf.Resilience{})
					if err != nil {
						return nil, err
					}
					lastDegraded = cfg.N - len(res.Survivors)
					return res.Fields, nil
				}
			} else {
				an = senkf.SEnKFAnalyzer(tpl, pl)
			}
		} else {
			an = senkf.PEnKFAnalyzer(senkf.Problem{Dir: dir, Tr: sess.Tracer}, dec)
		}
	default:
		sess.Fatal(fmt.Errorf("unknown analyzer %q", *analyzer))
	}

	cfg := senkf.CycleConfig{
		Enkf:          senkf.Config{Mesh: mesh, Radius: radius, N: *members, Inflation: *inflate},
		Model:         fm,
		StepsPerCycle: *steps,
		ObsStrideX:    2, ObsStrideY: 2,
		ObsVar:       *obsVar,
		ModelErrorSD: *modelErr,
		Seed:         *seed,
		Prof:         sess.Labels(),
	}
	// Every cycle's outcome feeds the run ledger's per-cycle series (and,
	// when monitored, the monitor's live series).
	onCycle := func(st senkf.CycleStats) {
		sess.RecordCycle(senkf.CycleSample{
			Cycle:           st.Cycle,
			BackgroundRMSE:  st.BackgroundRMSE,
			AnalysisRMSE:    st.AnalysisRMSE,
			FreeRMSE:        st.FreeRMSE,
			Spread:          st.Spread,
			DegradedMembers: lastDegraded,
		})
	}
	// Checkpoint hook chain: cut checkpoints on cadence, then (fault
	// injection) kill the process at the requested boundary — after the
	// checkpoint, so the crash is exactly what resume must survive.
	var hook senkf.CycleHook
	if *ckptDir != "" {
		cp := &senkf.Checkpointer{
			Dir: *ckptDir, Every: *ckptEvery, Keep: *ckptKeep,
			Seed: *seed, Config: ckptCfg,
			PlanHash: sess.PlanHash(), RunID: sess.RunID,
		}
		cpHook := cp.Hook(cfg)
		// A graceful SIGINT/SIGTERM cuts a final checkpoint before the
		// session lands, so an interrupted run loses nothing.
		sess.OnInterrupt(func() {
			if err := cp.Flush(); err != nil {
				sess.Log.Error("final checkpoint failed", "err", err.Error())
			} else if c := cp.LastCycle(); c >= 0 {
				sess.Log.Info("final checkpoint cut", "cycle", c)
			}
		})
		hook = func(st senkf.CycleState) error {
			if err := cpHook(st); err != nil {
				return err
			}
			if fp.CrashAfter(st.NextCycle - 1) {
				sess.Log.Error("fault injection: killing process", "cycle", st.NextCycle-1)
				os.Exit(137) // no graceful landing — a real crash
			}
			return nil
		}
	}
	history, err := senkf.RunCyclesFrom(cfg, st, *cycles, an, onCycle, hook)
	if err != nil {
		sess.Fatal(err)
	}
	fmt.Println("cycle | background RMSE | analysis RMSE | free-run RMSE | spread")
	for _, st := range history {
		fmt.Printf("%5d | %15.4f | %13.4f | %13.4f | %.4f\n",
			st.Cycle, st.BackgroundRMSE, st.AnalysisRMSE, st.FreeRMSE, st.Spread)
	}
	last := history[len(history)-1]
	fmt.Printf("\nassimilation %.4f vs free run %.4f after %d cycles (%.1fx better)\n",
		last.AnalysisRMSE, last.FreeRMSE, *cycles, last.FreeRMSE/last.AnalysisRMSE)

	if err := sess.Finish(nil); err != nil {
		log.Fatal(err)
	}
}
