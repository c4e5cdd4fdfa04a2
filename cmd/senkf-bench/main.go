// Command senkf-bench regenerates every figure of the paper's evaluation
// (Figures 1, 5, 9, 10, 11, 12, 13) by running the P-EnKF, L-EnKF and
// S-EnKF schedules on the simulated 12,000-processor machine, and prints
// each as a text table with the headline observations the paper reports.
//
// Usage:
//
//	senkf-bench                 # all figures at paper scale
//	senkf-bench -quick          # reduced scale (seconds instead of minutes)
//	senkf-bench -figure 13      # one figure only
//	senkf-bench -quick -faults  # fault-injection resilience sweep
//
// The bench pipeline writes versioned records and gates regressions:
//
//	senkf-bench -quick -record bench   # write bench/BENCH_<n>.json
//	senkf-bench -quick -check bench    # fail if wall time regressed >15%
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"senkf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("senkf-bench: ")
	var (
		quick     = flag.Bool("quick", false, "run the reduced-scale suite")
		figure    = flag.Int("figure", 0, "regenerate only this figure number (1, 5, 9, 10, 11, 12, 13)")
		ablations = flag.Bool("ablations", false, "run the co-design ablation ladder instead of the figures")
		epsSweep  = flag.Bool("eps-sweep", false, "run the auto-tuner ε-sensitivity sweep instead of the figures")
		csvDir    = flag.String("csv", "", "also write each figure as CSV into this directory")
		traceNP   = flag.Int("trace-np", 0, "processor budget for the traced run (default: largest configured count)")
		detail    = flag.Bool("trace-detail", false, "include high-volume detail events (park/wake, queue depths) in the trace")
		faultsRun = flag.Bool("faults", false, "run the fault-injection resilience sweep instead of the figures")
		faultSeed = flag.Uint64("fault-seed", 42, "seed for the generated fault plans (with -faults)")
		ostOutage = flag.String("ost-outage", "", "inject a full storage-target outage window ost:start:end in virtual seconds into the traced run (e.g. 3:0:0.5; needs -trace, -counters, -monitor, -wire or -archive)")
		record    = flag.String("record", "", "run the bench suite and write the next versioned BENCH_<n>.json into this directory")
		recordVer = flag.Int("record-version", 0, "with -record: force the record's version number (0 = latest+1)")
		check     = flag.String("check", "", "run the bench suite and compare against the latest BENCH_<n>.json in this directory; exit 1 on regression")
	)
	obs := senkf.RegisterRunFlags(flag.CommandLine, "senkf-bench")
	flag.Parse()
	if *record == "" && *check == "" {
		given := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() != f.DefValue })
		if err := checkTracedRun(given); err != nil {
			log.Fatal(err)
		}
	}

	sess, err := obs.Start()
	if err != nil {
		log.Fatal(err)
	}

	suite := senkf.PaperFigures()
	scale := "paper"
	if *quick {
		suite = senkf.QuickFigures()
		scale = "quick"
	}
	// The traced run is the one any observer of the run was started for:
	// a sink, the counters, the monitor, the wire collector or the archive.
	traced := sess.Tracer != nil || sess.Wire != nil
	if *ostOutage != "" && (!traced || *record != "" || *check != "") {
		sess.Fatal(fmt.Errorf("-ost-outage applies only to the traced run (-trace, -counters, -monitor, -wire or -archive, without -record/-check)"))
	}
	if *record != "" || *check != "" {
		benchPipeline(sess, suite, scale, *record, *recordVer, *check)
		return
	}
	if traced {
		tracedRun(sess, suite, *traceNP, *detail, *ostOutage)
		return
	}
	if *faultsRun {
		sess.Describe("resilience-sweep", "simulated", nil)
		f, err := suite.Resilience(*faultSeed, nil)
		if err != nil {
			sess.Fatal(fmt.Errorf("resilience sweep: %w", err))
		}
		if err := f.WriteTable(os.Stdout); err != nil {
			sess.Fatal(err)
		}
		finish(sess)
		return
	}
	if *epsSweep {
		sess.Describe("eps-sweep", "simulated", nil)
		np := suite.O.ProcCounts[len(suite.O.ProcCounts)-1]
		f, err := suite.EpsilonSweep(np, []float64{1e-6, 1e-4, 1e-3, 1e-2, 1e-1})
		if err != nil {
			sess.Fatal(err)
		}
		if err := f.WriteTable(os.Stdout); err != nil {
			sess.Fatal(err)
		}
		finish(sess)
		return
	}
	if *ablations {
		sess.Describe("ablations", "simulated", nil)
		np := suite.O.ProcCounts[len(suite.O.ProcCounts)-1]
		abs, err := suite.Ablations(np)
		if err != nil {
			sess.Fatal(err)
		}
		if err := senkf.WriteAblations(os.Stdout, np, abs); err != nil {
			sess.Fatal(err)
		}
		finish(sess)
		return
	}
	sess.Describe("figures", "simulated", nil)
	type job struct {
		id int
		fn func() (senkf.Figure, error)
	}
	jobs := []job{
		{1, suite.Fig01}, {5, suite.Fig05}, {9, suite.Fig09}, {10, suite.Fig10},
		{11, suite.Fig11}, {12, suite.Fig12}, {13, suite.Fig13},
	}
	ran := 0
	for _, j := range jobs {
		if *figure != 0 && *figure != j.id {
			continue
		}
		f, err := j.fn()
		if err != nil {
			sess.Fatal(fmt.Errorf("figure %d: %w", j.id, err))
		}
		if err := f.WriteTable(os.Stdout); err != nil {
			sess.Fatal(err)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				sess.Fatal(err)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("fig%02d.csv", j.id))
			cf, err := os.Create(path)
			if err != nil {
				sess.Fatal(err)
			}
			if err := f.WriteCSV(cf); err != nil {
				cf.Close()
				sess.Fatal(err)
			}
			if err := cf.Close(); err != nil {
				sess.Fatal(err)
			}
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		sess.Fatal(fmt.Errorf("unknown figure %d (have 1, 5, 9, 10, 11, 12, 13)", *figure))
	}
	finish(sess)
}

// observerFlags are the flags that start an observer of the run; with any of
// them (and without -record/-check) senkf-bench makes its one traced S-EnKF
// run instead of the figures.
var observerFlags = []string{"trace", "counters", "monitor", "wire", "archive"}

// droppedByTracedRun are the flags that choose what the untraced run prints.
var droppedByTracedRun = []string{"faults", "eps-sweep", "ablations", "figure", "csv"}

// checkTracedRun refuses a flag the traced run would drop, naming it and the
// observer flag that chose the traced run. given reports the flags set to
// other than their defaults.
func checkTracedRun(given map[string]bool) error {
	for _, o := range observerFlags {
		if !given[o] {
			continue
		}
		for _, d := range droppedByTracedRun {
			if given[d] {
				return fmt.Errorf("-%s does not combine with -%s: an observer flag runs the one traced S-EnKF run, which does not apply -%s", d, o, d)
			}
		}
	}
	return nil
}

// parseOSTOutage parses the -ost-outage value "ost:start:end" into a
// single-window fault plan: a full outage (service factor 0) on one
// storage target over [start, end) virtual seconds.
func parseOSTOutage(s string) (*senkf.FaultPlan, error) {
	var ost int
	var start, end float64
	if _, err := fmt.Sscanf(s, "%d:%g:%g", &ost, &start, &end); err != nil {
		return nil, fmt.Errorf("-ost-outage %q: want ost:start:end (e.g. 3:0:0.5)", s)
	}
	if ost < 0 || end <= start {
		return nil, fmt.Errorf("-ost-outage %q: ost must be >= 0 and end > start", s)
	}
	return &senkf.FaultPlan{OSTWindows: []senkf.OSTWindow{
		{OST: ost, Start: start, End: end, Factor: 0},
	}}, nil
}

func finish(sess *senkf.RunSession) {
	if err := sess.Finish(nil); err != nil {
		log.Fatal(err)
	}
}

// benchTol is the relative wall-time regression tolerance of -check.
const benchTol = 0.15

// benchPipeline runs the deterministic bench suite and either records it
// as the next BENCH_<n>.json version or checks it against the latest
// committed record, exiting non-zero when any run's wall time regressed
// beyond benchTol.
func benchPipeline(sess *senkf.RunSession, suite *senkf.FigureSuite, scale, record string, recordVer int, check string) {
	sess.Describe("bench-suite", "simulated", nil)
	rec, err := senkf.CollectBenchRecord(suite, scale)
	if err != nil {
		sess.Fatal(fmt.Errorf("bench suite: %w", err))
	}
	rec.Version = recordVer
	if record != "" {
		path, err := senkf.WriteBenchRecord(record, rec)
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Printf("wrote %s (%d runs at %s scale)\n", path, len(rec.Runs), scale)
	}
	if check == "" {
		finish(sess)
		return
	}
	prev, path, ok, err := senkf.LatestBenchRecord(check)
	if err != nil {
		sess.Fatal(err)
	}
	if !ok {
		sess.Fatal(fmt.Errorf("no BENCH_<n>.json in %s to check against (record one with -record)", check))
	}
	deltas, err := senkf.CompareBenchRecords(prev, rec, benchTol)
	if err != nil {
		sess.Fatal(err)
	}
	fmt.Printf("checked against %s (tolerance %.0f%%):\n", path, 100*benchTol)
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED"
		}
		fmt.Printf("  %-8s np=%-6d %10.4gs -> %10.4gs  %+7.2f%%  %s\n",
			d.Algorithm, d.NP, d.Prev, d.Cur, 100*d.Delta, verdict)
	}
	if reg := senkf.BenchRegressions(deltas); len(reg) > 0 {
		sess.Fatal(fmt.Errorf("%d run(s) regressed beyond %.0f%% vs %s", len(reg), 100*benchTol, path))
	}
	fmt.Println("no regressions")
	finish(sess)
}

// tracedRun auto-tunes and simulates one S-EnKF run at np processors with
// tracing attached, writes the Chrome trace JSON, and/or prints the
// simulation counters. The trace is stamped with the simulation's virtual
// clock, so track timelines line up with the reported runtime. With
// -monitor, the run is additionally watched live: the monitor tees off the
// event stream, checks plan conformance against the compiled plan, and
// judges every stage against the Eq. 7–10 model budgets (the simulated
// substrate streams them as model/t_* counters).
func tracedRun(sess *senkf.RunSession, suite *senkf.FigureSuite, np int, detail bool, outage string) {
	if np == 0 {
		np = suite.O.ProcCounts[len(suite.O.ProcCounts)-1]
	}
	sess.Describe("senkf", "simulated", nil)
	if outage != "" {
		fp, err := parseOSTOutage(outage)
		if err != nil {
			sess.Fatal(err)
		}
		suite.O.Cfg.Faults = fp
		sess.SetFaults(fp)
		w := fp.OSTWindows[0]
		sess.Note("ost-outage", fmt.Sprintf("ost%d down [%gs, %gs)", w.OST, w.Start, w.End))
	}
	// The simulated schedules stamp every event with explicit virtual
	// timestamps; the tracer's own clock is never consulted.
	sess.Tracer.SetDetail(detail)
	suite.O.Cfg.Tracer = sess.Tracer
	suite.O.Cfg.Obs = sess.Observer()
	suite.O.Cfg.Msgs = sess.MsgObserver()
	if sess.Wire != nil {
		suite.O.Cfg.Reads = sess.Wire
	}

	res, tuned, err := suite.SEnKFAt(np)
	if err != nil {
		sess.Fatal(err)
	}
	sess.Note("tuned", fmt.Sprintf("nsdx=%d nsdy=%d L=%d ncg=%d",
		tuned.Choice.NSdx, tuned.Choice.NSdy, tuned.Choice.L, tuned.Choice.NCg))
	fmt.Printf("S-EnKF at %d processors: nsdx=%d nsdy=%d L=%d ncg=%d\n",
		np, tuned.Choice.NSdx, tuned.Choice.NSdy, tuned.Choice.L, tuned.Choice.NCg)
	fmt.Printf("runtime %.3fs, first stage %.3fs, overlapped share of I/O+comm %.1f%%\n",
		res.Runtime, res.FirstStage, 100*res.OverlapFraction)
	finish(sess)
}
