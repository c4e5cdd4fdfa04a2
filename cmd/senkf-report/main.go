// Command senkf-report turns a traced run into a performance report and
// fronts the run ledger's cross-run analytics.
//
// Single-run mode (the original): the critical path with per-phase
// attribution, per-class phase breakdowns and overlap shares recomputed
// from the raw events, per-stage pipeline efficiency against the ideal
// multi-stage overlap, and — when the trace carries the tuner's
// prediction — model-vs-measured drift of every cost term plus whether
// the auto-tuner would decide differently under the measured
// coefficients.
//
// Ledger mode: list and diff query the archive that senkf-run,
// senkf-cycle and senkf-bench populate via -archive.
//
// Usage:
//
//	senkf-bench -quick -trace trace.json
//	senkf-report -trace trace.json -json report.json
//
//	senkf-run -dir /tmp/ens -algo senkf -archive ledger
//	senkf-report list -archive ledger
//	senkf-report diff -archive ledger <runA> <runB>
//	senkf-report hotspots -archive ledger <run>   (needs -capture-profile)
//	senkf-report wire -archive ledger <run>       (needs -wire)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"senkf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("senkf-report: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "list":
			runList(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		case "hotspots":
			runHotspots(os.Args[2:])
			return
		case "wire":
			runWire(os.Args[2:])
			return
		}
	}
	runSingle()
}

// runSingle is the original single-trace report mode.
func runSingle() {
	var (
		traceIn = flag.String("trace", "", "Chrome trace-event JSON file of the run (required)")
		jsonOut = flag.String("json", "", "write the structured report as JSON to this file")
		quiet   = flag.Bool("quiet", false, "suppress the text summary (useful with -json)")
	)
	obs := senkf.RegisterBasicRunFlags(flag.CommandLine, "senkf-report")
	flag.Parse()
	if *traceIn == "" {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "subcommands: list | diff | hotspots | wire (cross-run ledger queries; see -h of each)")
		log.Fatal("missing -trace (point it at a trace file from senkf-run/senkf-bench/senkf-cycle)")
	}
	sess, err := obs.Start()
	if err != nil {
		log.Fatal(err)
	}

	tf, err := os.Open(*traceIn)
	if err != nil {
		sess.Fatal(err)
	}
	events, err := senkf.ReadChromeTrace(tf)
	tf.Close()
	if err != nil {
		sess.Fatal(fmt.Errorf("%s: %v", *traceIn, err))
	}

	rep, err := senkf.BuildRunReport(events)
	if err != nil {
		sess.Fatal(err)
	}

	if !*quiet {
		if err := rep.WriteText(os.Stdout); err != nil {
			sess.Fatal(err)
		}
	}
	if *jsonOut != "" {
		writeJSON(*jsonOut, rep)
	}
	if err := sess.Finish(nil); err != nil {
		log.Fatal(err)
	}
}

// ledgerFlags are the flags every ledger subcommand shares.
type ledgerFlags struct {
	fs      *flag.FlagSet
	archive *string
	jsonOut *string
}

func newLedgerFlags(name string) *ledgerFlags {
	fs := flag.NewFlagSet("senkf-report "+name, flag.ExitOnError)
	return &ledgerFlags{
		fs:      fs,
		archive: fs.String("archive", "", "run-ledger directory (required; the -archive of senkf-run/senkf-cycle/senkf-bench)"),
		jsonOut: fs.String("json", "", "write the structured result as JSON to this file instead of text to stdout"),
	}
}

func (lf *ledgerFlags) open(args []string) *senkf.RunArchive {
	lf.fs.Parse(args)
	if *lf.archive == "" {
		lf.fs.Usage()
		log.Fatal("missing -archive (the run-ledger directory)")
	}
	a, err := senkf.OpenRunArchive(*lf.archive)
	if err != nil {
		log.Fatal(err)
	}
	return a
}

func runList(args []string) {
	lf := newLedgerFlags("list")
	binary := lf.fs.String("binary", "", "only runs of this binary (e.g. senkf-run)")
	algo := lf.fs.String("algo", "", "only runs of this algorithm (e.g. senkf)")
	substrate := lf.fs.String("substrate", "", "only runs on this substrate: real | simulated")
	outcome := lf.fs.String("outcome", "", "only runs with this outcome: ok | error")
	a := lf.open(args)
	rows, err := a.List(senkf.RunFilter{
		Binary: *binary, Algorithm: *algo, Substrate: *substrate, Outcome: *outcome,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *lf.jsonOut != "" {
		writeJSON(*lf.jsonOut, rows)
		return
	}
	if err := senkf.WriteRunListTable(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
}

func runDiff(args []string) {
	lf := newLedgerFlags("diff")
	a := lf.open(args)
	rest := lf.fs.Args()
	if len(rest) != 2 {
		log.Fatal("usage: senkf-report diff -archive <dir> <runA> <runB> (unique run-ID prefixes are accepted)")
	}
	d, err := a.DiffRuns(rest[0], rest[1])
	if err != nil {
		log.Fatal(err)
	}
	if *lf.jsonOut != "" {
		writeJSON(*lf.jsonOut, d)
		return
	}
	if err := d.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runHotspots ranks an archived run's plan stages by CPU self-time from
// its labeled whole-run profile (-capture-profile), cross-checked
// against trace busy time. With -cpu-profile it attributes a standalone
// profile + trace pair instead of an archived run.
func runHotspots(args []string) {
	lf := newLedgerFlags("hotspots")
	cpuIn := lf.fs.String("cpu-profile", "", "attribute this raw CPU profile instead of an archived run's (requires -trace)")
	traceIn := lf.fs.String("trace", "", "with -cpu-profile: the Chrome trace-event JSON of the same run")
	lf.fs.Parse(args)

	var profile []byte
	var events []senkf.TraceEvent
	if *cpuIn != "" {
		if *traceIn == "" {
			log.Fatal("-cpu-profile needs -trace (the busy-time side of the attribution)")
		}
		var err error
		if profile, err = os.ReadFile(*cpuIn); err != nil {
			log.Fatal(err)
		}
		tf, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		events, err = senkf.ReadChromeTrace(tf)
		tf.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		if *lf.archive == "" {
			lf.fs.Usage()
			log.Fatal("missing -archive (or use -cpu-profile with -trace)")
		}
		a, err := senkf.OpenRunArchive(*lf.archive)
		if err != nil {
			log.Fatal(err)
		}
		rest := lf.fs.Args()
		if len(rest) != 1 {
			log.Fatal("usage: senkf-report hotspots -archive <dir> <run> (unique run-ID prefixes are accepted)")
		}
		id, err := a.Resolve(rest[0])
		if err != nil {
			log.Fatal(err)
		}
		rec, err := a.Load(id)
		if err != nil {
			log.Fatal(err)
		}
		if !rec.Has(senkf.RunCPUProfileFile) {
			log.Fatalf("run %s archived no CPU profile (re-run with -capture-profile)", id)
		}
		if profile, err = rec.ReadFile(senkf.RunCPUProfileFile); err != nil {
			log.Fatal(err)
		}
		tdata, err := rec.ReadFile(senkf.RunTraceFile)
		if err != nil {
			log.Fatal(err)
		}
		events, err = senkf.ReadChromeTrace(bytes.NewReader(tdata))
		if err != nil {
			log.Fatal(err)
		}
	}

	attr, err := senkf.AttributeHotStages(profile, events)
	if err != nil {
		log.Fatal(err)
	}
	stages, err := senkf.ProfileStageLabels(profile)
	if err != nil {
		log.Fatal(err)
	}
	if *lf.jsonOut != "" {
		writeJSON(*lf.jsonOut, attr)
		return
	}
	if err := attr.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile stages: %v\n", stages)
}

// runWire renders an archived run's wire-telemetry summary (wire.json):
// stage-data totals against the plan edge matrix, the top edges by
// bytes, comm skew, and per-OST utilization timelines. With -file it
// renders a standalone wire.json instead of an archived run's.
func runWire(args []string) {
	lf := newLedgerFlags("wire")
	fileIn := lf.fs.String("file", "", "render this wire.json directly instead of an archived run's")
	lf.fs.Parse(args)

	var data []byte
	var err error
	if *fileIn != "" {
		if data, err = os.ReadFile(*fileIn); err != nil {
			log.Fatal(err)
		}
	} else {
		if *lf.archive == "" {
			lf.fs.Usage()
			log.Fatal("missing -archive (or use -file with a standalone wire.json)")
		}
		a, err := senkf.OpenRunArchive(*lf.archive)
		if err != nil {
			log.Fatal(err)
		}
		rest := lf.fs.Args()
		if len(rest) != 1 {
			log.Fatal("usage: senkf-report wire -archive <dir> <run> (unique run-ID prefixes are accepted)")
		}
		id, err := a.Resolve(rest[0])
		if err != nil {
			log.Fatal(err)
		}
		rec, err := a.Load(id)
		if err != nil {
			log.Fatal(err)
		}
		if !rec.Has(senkf.RunWireFile) {
			log.Fatalf("run %s archived no wire telemetry (re-run with -wire)", id)
		}
		if data, err = rec.ReadFile(senkf.RunWireFile); err != nil {
			log.Fatal(err)
		}
	}

	sum, err := senkf.ParseWireSummary(data)
	if err != nil {
		log.Fatal(err)
	}
	if *lf.jsonOut != "" {
		writeJSON(*lf.jsonOut, sum)
		return
	}
	if err := sum.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
