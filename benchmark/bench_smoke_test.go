package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// lastLine parses the result a run printed as its last line.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmokeRuns runs every workload at smoke scale, untraced and traced, on
// the default seed and on another, and holds the printed metrics to the
// program's tables: every name printed is declared, and the other way round.
func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []string{"20190216", "7"} {
			for _, c := range []struct {
				trace string
				defs  []metricDef
			}{{"0", endToEnd}, {"1", perLayer}} {
				var stdout, stderr bytes.Buffer
				dir := t.TempDir()
				code := run([]string{"--workload", name, "--seed", seed, "--seconds", "1", "--trace", c.trace,
					"-smoke", "-dir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("%s seed %s trace %s: exit %d\n%s%s", name, seed, c.trace, code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %s trace %s: correct %t, failed %d of %d", name, seed, c.trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(c.defs) {
					t.Errorf("%s trace %s: %d metrics printed, %d declared", name, c.trace, len(res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s trace %s: metric %s not printed", name, c.trace, d.Name)
						continue
					}
					if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s trace %s: %s = %g %s, want a finite number of %s", name, c.trace, d.Name, m.Value, m.Unit, d.Unit)
					}
					if c.trace == "0" && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, must never be 0", name, d.Name, m.Value)
					}
				}
				if c.trace == "1" {
					if _, err := os.Stat(filepath.Join(dir, "spans-"+name+".json")); err != nil {
						t.Errorf("%s: no span file: %v", name, err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) != 0 {
					t.Errorf("%s: member files and checkpoints left behind: %v", name, left)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program's tables and to the
// limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2-8, <=16, <=128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the program has %d", len(bj.Workloads), len(workloadNames))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloadNames[i])
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, c := range []struct {
		kind     string
		declared []jsonMetric
		defs     []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Fatalf("%s: %d metrics declared, the program prints %d", c.kind, len(c.declared), len(c.defs))
		}
		for i, m := range c.declared {
			d := c.defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: declared %s %s %s, the program has %s %s %s", c.kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s[%d] %q: bad or repeated name, bad unit %q or direction %q", c.kind, i, m.Name, m.Unit, m.Better)
			}
			seen[m.Name] = true
			switch {
			case c.kind == "per_layer" && m.Bound != nil:
				t.Errorf("per-layer metric %s has a bound", m.Name)
			case c.kind == "end_to_end" && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("end-to-end metric %s: bound %v, the program has %g, and it must lie in (0, 0.25]", m.Name, m.Bound, d.Bound)
			}
		}
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Errorf("the set-up time must be declared as setup_s, s, lower")
	}
}

// corrupted flips one value of every output of the workload it wraps.
type corrupted struct{ workload }

func (c corrupted) op(i int, sp *opSpans) (any, error) {
	out, err := c.workload.op(i, sp)
	switch v := out.(type) {
	case [][][]float64:
		v[0][0][0] = math.Nextafter(v[0][0][0], math.Inf(1))
	case *analysisCapture:
		v.analysis[0][0] = math.Nextafter(v.analysis[0][0], math.Inf(1))
	case simOutcome:
		v.senkf = math.Nextafter(v.senkf, math.Inf(1))
		out = v
	}
	return out, err
}

// TestCheckCountsAFlippedValueAsFailed is the negative test of the
// correctness gate: one value of each analysis moved by one unit in the last
// place must make the op count as failed.
func TestCheckCountsAFlippedValueAsFailed(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(20190216, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if st := runLoop(w, 0, time.Hour, 2, nil); st.failed != 0 || st.verified != 2 {
			t.Errorf("%s: %d of 2 honest ops failed, %d verified: %v", name, st.failed, st.verified, st.firstErr)
		}
		if st := runLoop(corrupted{w}, 2, time.Hour, 2, nil); st.failed != 2 || len(st.samples) != 0 {
			t.Errorf("%s: %d of 2 corrupted ops counted as failed", name, st.failed)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(p05, allocs float64, correct bool) map[string]result {
		return map[string]result{"dense": {Correct: correct, Attempted: 1, Metrics: map[string]metricValue{
			"op_s_p05":      {Value: p05, Unit: "s"},
			"allocs_per_op": {Value: allocs, Unit: "count"},
		}}}
	}
	dir := t.TempDir()
	file := func(name string, r map[string]result) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := file("base.json", mk(0.100, 1000, true))
	for _, c := range []struct {
		name string
		r    map[string]result
		want int
	}{
		{"same", mk(0.100, 1000, true), 0},
		{"within", mk(0.105, 1010, true), 0},
		{"better", mk(0.050, 500, true), 0},
		{"slower", mk(0.130, 1000, true), 1},
		{"more allocations", mk(0.100, 1100, true), 1},
		{"incorrect", mk(0.100, 1000, false), 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-compare", base, file("b.json", c.r)}, &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of what
// its children cover, however the children overlap.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "a", Start: 3, End: 6, Parent: 0},  // overlaps the first
		{Name: "b", Start: 8, End: 12, Parent: 0}, // runs past its parent
	}
	dur, self := spanTotals(spans)
	if dur["a"] != 6 || dur["b"] != 4 || dur["op"] != 10 {
		t.Errorf("durations %v", dur)
	}
	if self["op"] != 10-5-2 {
		t.Errorf("op self time %g, want 3", self["op"])
	}
}
