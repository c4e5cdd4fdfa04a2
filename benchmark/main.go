// Command benchmark is the repository's wall-clock benchmark: four
// closed-loop workloads over the real engine, the cycled filter and the
// simulator, measured end to end with all tracing off, and — in a separate
// traced run — layer by layer. BENCHMARK.json at the repository root
// describes it; README.md in this directory explains it.
//
//	bash benchmark/run.sh                                  # every workload, from the repository root
//	bash benchmark/run.sh --workload stream --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload stream --trace 1      # per-layer metrics and the span file
//	bash benchmark/run.sh --compare A.json B.json          # two -out files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

var workloadNames = []string{"dense", "stream", "cycle", "simcell"}

// setupRepeats is how often an untraced run sets its workload up: setup_s
// is the fastest, because a single set-up is at the mercy of one fsync and
// of whoever else is on the machine.
const setupRepeats = 5

// warmupOps run untimed before the timed section, so that the page cache
// holds the member files and the heap has reached its working size.
const warmupOps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string // scratch directory, inside the checkout
	out      string
}

// result is the last line a run prints: the contract of BENCHMARK.json.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "dense | stream | cycle | simcell | all (each in a child process of its own)")
	fs.Uint64Var(&o.seed, "seed", 20190216, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics, span file); 0: the end-to-end metrics, all tracing off")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes and two ops per loop, to exercise the harness, not to measure")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for member files, checkpoints and the span files")
	fs.StringVar(&o.out, "out", "", "also write the results, keyed by workload, to this JSON file")
	fs.BoolVar(&compare, "compare", false, "compare the two -out files given as arguments against the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	results := map[string]result{}
	var err error
	if o.workload == "all" {
		err = runAll(o, args, results, stdout, stderr)
	} else {
		var res result
		res, err = runWorkload(o, stdout)
		if err == nil {
			results[o.workload] = res
			err = printResult(stdout, res)
		}
	}
	if err == nil && o.out != "" {
		err = writeJSON(o.out, results)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// runAll runs every workload in a child process of this binary, one after
// the other, so that each has a heap and a peak RSS of its own.
func runAll(o options, args []string, results map[string]result, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch(o), "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, name := range workloadNames {
		file := filepath.Join(tmp, name+".json")
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", name, "-out", file)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// Run waits for the child; a failed workload does not stop the rest.
		runErr := cmd.Run()
		var one map[string]result
		if err := readJSON(file, &one); err != nil {
			return errors.Join(runErr, err)
		}
		results[name] = one[name]
	}
	return nil
}

// scratch makes and returns the scratch directory.
func scratch(o options) string {
	// A failure shows as the error of the first use of the directory.
	_ = os.MkdirAll(o.dir, 0o755)
	return o.dir
}

// runWorkload makes one run of one workload: untraced, it measures the
// end-to-end metrics; traced, the per-layer ones.
func runWorkload(o options, stdout io.Writer) (result, error) {
	data, err := os.MkdirTemp(scratch(o), "run-")
	if err != nil {
		return result{}, err
	}
	// Member files and checkpoints do not outlive the run.
	defer os.RemoveAll(data)

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  traced %t  smoke %t  GOMAXPROCS %d  nproc %d  %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.smoke, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if o.trace {
		return runTraced(o, data, stdout)
	}
	return runUntraced(o, data, stdout)
}

// loopLimits is how long a loop lasts and how many ops it may run.
func loopLimits(o options, share float64) (time.Duration, int) {
	if o.smoke {
		return time.Hour, 2
	}
	return time.Duration(share * o.seconds * float64(time.Second)), 0
}

func setUp(o options, dir string) (workload, float64, error) {
	w, err := newWorkload(o.workload, o.smoke)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = w.setup(o.seed, dir)
	return w, time.Since(t0).Seconds(), err
}

// warmUp runs the untimed warm-up ops; they are checked like any other.
func warmUp(o options, w workload) (next int, err error) {
	n := warmupOps
	if o.smoke {
		n = 1
	}
	st := runLoop(w, 0, time.Hour, n, nil)
	return n, st.firstErr
}

func runUntraced(o options, data string, stdout io.Writer) (result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(data, fmt.Sprintf("setup-%d", i))
		var s float64
		var err error
		if w, s, err = setUp(o, dir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		if i < setupRepeats-1 {
			os.RemoveAll(dir)
		}
	}
	next, err := warmUp(o, w)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	lasting, maxOps := loopLimits(o, 1)
	st := runLoop(w, next, lasting, maxOps, nil)
	finishErr := w.finish()

	values := map[string]float64{"setup_s": slices.Min(setups)}
	fmt.Fprintf(stdout, "ops %d  failed %d  verified %d\n", st.attempted, st.failed, st.verified)
	if len(st.samples) > 0 {
		for k, v := range endToEndMetrics(st.samples) {
			values[k] = v
		}
		fmt.Fprintln(stdout, distribution(st.samples))
	}
	return report(stdout, endToEnd, values, st.attempted, st.failed, st.firstErr, finishErr), nil
}

// report assembles the result of a run from the declared metrics, says what
// went wrong, and prints the metrics one a line. Any error makes the run
// incorrect.
func report(stdout io.Writer, defs []metricDef, values map[string]float64, attempted, failed int, errs ...error) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, e := range errs {
		if e != nil {
			res.Correct = false
			fmt.Fprintln(stdout, "FAILED:", e)
		}
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	printTable(stdout, defs, res.Metrics)
	return res
}

func runTraced(o options, data string, stdout io.Writer) (result, error) {
	w, _, err := setUp(o, filepath.Join(data, "setup"))
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	next, err := warmUp(o, w)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	// The same loop twice, recorder off and on: the difference between the
	// two medians is what the harness's own tracing costs.
	lasting, maxOps := loopLimits(o, 0.25)
	plain := runLoop(w, next, lasting, maxOps, nil)
	rec := newSpanRecorder()
	traced := runLoop(w, next+plain.attempted, lasting, maxOps, rec)
	finishErr := w.finish()
	rss := peakRSSMB()

	values := map[string]float64{"proc.peak_rss_mb": rss}
	if len(plain.samples) > 0 && len(traced.samples) > 0 {
		values["bench.trace_overhead_frac"] = median(wallTimes(traced.samples))/median(wallTimes(plain.samples)) - 1
	}
	foldSpans(rec.spans, len(traced.samples), values)
	layerErr := tracedLayerMetrics(w, len(traced.samples), values)
	probeErr := runProbes(o, filepath.Join(data, "probes"), values)
	spanFile := filepath.Join(o.dir, "spans-"+o.workload+".json")
	writeErr := writeJSON(spanFile, rec.spans)

	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	fmt.Fprintf(stdout, "ops %d untraced + %d traced  failed %d  spans %d -> %s\n",
		plain.attempted, traced.attempted, failed, len(rec.spans), spanFile)
	return report(stdout, perLayer, values, attempted, failed,
		plain.firstErr, traced.firstErr, finishErr, layerErr, probeErr, writeErr), nil
}

func printTable(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  may worsen by %g%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s is better%s)\n", d.Name, m[d.Name].Value, d.Unit, d.Better, bound)
	}
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// compareFiles prints, for every workload and end-to-end metric the two
// files share, how much worse b is than a as a share of a, against the
// metric's bound. It returns 1 when any is outside its bound.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var ra, rb map[string]result
	for _, f := range []struct {
		path string
		into *map[string]result
	}{{a, &ra}, {b, &rb}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	names := make([]string, 0, len(ra))
	for name := range ra {
		if _, ok := rb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "benchmark: the two files share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range names {
		if !ra[name].Correct || !rb[name].Correct {
			fmt.Fprintf(stdout, "%-8s a run is not correct\n", name)
			code = 1
		}
		for _, d := range endToEnd {
			va, oka := ra[name].Metrics[d.Name]
			vb, okb := rb[name].Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if !(worse <= d.Bound) {
				verdict = "OUTSIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
