package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"senkf"
)

// TestCheckTracedRun: every observer flag with every flag the traced run
// drops is an error naming both; either kind alone, or neither, is not.
func TestCheckTracedRun(t *testing.T) {
	for _, o := range observerFlags {
		for _, d := range droppedByTracedRun {
			err := checkTracedRun(map[string]bool{o: true, d: true, "quick": true})
			if err == nil || !strings.Contains(err.Error(), "-"+o) || !strings.Contains(err.Error(), "-"+d) {
				t.Errorf("-%s with -%s: %v, want an error naming both", o, d, err)
			}
		}
		if err := checkTracedRun(map[string]bool{o: true, "quick": true, "trace-np": true}); err != nil {
			t.Errorf("-%s alone: %v", o, err)
		}
	}
	for _, d := range droppedByTracedRun {
		if err := checkTracedRun(map[string]bool{d: true, "trace": false}); err != nil {
			t.Errorf("-%s without an observer: %v", d, err)
		}
	}
}

// TestObserverFlagsAreTheSessions: the observer flags checkTracedRun knows
// are flags the run session registers.
func TestObserverFlagsAreTheSessions(t *testing.T) {
	fs := flag.NewFlagSet("senkf-bench", flag.ContinueOnError)
	senkf.RegisterRunFlags(fs, "senkf-bench")
	for _, o := range observerFlags {
		if fs.Lookup(o) == nil {
			t.Errorf("-%s is not a run-session flag", o)
		}
	}
}

// TestQuickSuiteGolden pins the quick suite's record byte for byte: every
// cell's virtual-clock runtime, phase breakdowns, tuned choice, drift
// terms and wire summary. A mismatch names each differing cell and field
// with both values; re-record with
//
//	go run ./cmd/senkf-bench -quick -record > bench/quick-suite.golden.json
//
// only when the change is meant to move them.
func TestQuickSuiteGolden(t *testing.T) {
	rec, err := collectRecord(senkf.QuickFigures(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Runs) != 12 {
		t.Errorf("got %d cells, want 12 (P-EnKF, S-EnKF and S-EnKF-ML at four counts)", len(rec.Runs))
	}
	single := map[int]benchRun{}
	for _, r := range rec.Runs {
		if r.Runtime <= 0 {
			t.Errorf("%s np=%d: runtime %g", r.Algorithm, r.NP, r.Runtime)
		}
		if r.Algorithm == "S-EnKF" {
			single[r.NP] = r
		}
	}
	for _, r := range rec.Runs {
		if r.Algorithm != "S-EnKF" && r.Algorithm != "S-EnKF-ML" {
			continue
		}
		if r.Tuned == nil || len(r.Drift) == 0 {
			t.Errorf("%s np=%d carries no tuned choice or drift terms", r.Algorithm, r.NP)
		}
		// The multilevel cell is priced with the level factor: it must
		// cost strictly more than its single-level twin.
		if s, ok := single[r.NP]; r.Algorithm == "S-EnKF-ML" && (!ok || r.Runtime <= s.Runtime) {
			t.Errorf("S-EnKF-ML np=%d runtime %g not above S-EnKF's %g", r.NP, r.Runtime, s.Runtime)
		}
	}

	got, err := rec.encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../bench/quick-suite.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	for _, d := range recordDiff(t, want, got) {
		t.Error(d)
	}
	t.Error("the quick-suite record differs from bench/quick-suite.golden.json")
}

// recordDiff lists the leaves two encoded records disagree on, one line
// each: the cell ("P-EnKF np=20", or "record" for the top level), the
// field path, and the golden and current literals, with their distance
// when both are numbers.
func recordDiff(t *testing.T, want, got []byte) []string {
	w, g := recordLeaves(t, want), recordLeaves(t, got)
	keys := map[string]bool{}
	for k := range w {
		keys[k] = true
	}
	for k := range g {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		wv, wok := w[k]
		gv, gok := g[k]
		switch {
		case !wok:
			wv = "(absent)"
		case !gok:
			gv = "(absent)"
		case wv == gv:
			continue
		}
		out = append(out, fmt.Sprintf("%s: golden %s, got %s%s", k, wv, gv, distance(wv, gv)))
	}
	sort.Strings(out)
	return out
}

// recordLeaves flattens an encoded record to "cell field" → the leaf's
// JSON literal.
func recordLeaves(t *testing.T, data []byte) map[string]string {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("decoding a record: %v", err)
	}
	leaves := map[string]string{}
	var walk func(cell, path string, v any)
	walk = func(cell, path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(cell, strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			for i, e := range v {
				walk(cell, fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			lit, _ := json.Marshal(v)
			leaves[cell+" "+path] = string(lit)
		}
	}
	runs, _ := rec["runs"].([]any)
	delete(rec, "runs")
	walk("record", "", rec)
	for _, r := range runs {
		r, _ := r.(map[string]any)
		walk(fmt.Sprintf("%v np=%v", r["algorithm"], r["np"]), "", r)
	}
	return leaves
}

// distance says how far apart two number literals, at least one of them
// fractional, lie: in units in the last place when they are close, else
// as a relative change. It is empty for anything else.
func distance(want, got string) string {
	x, errX := strconv.ParseFloat(want, 64)
	y, errY := strconv.ParseFloat(got, 64)
	if errX != nil || errY != nil || !strings.ContainsAny(want+got, ".eE") {
		return ""
	}
	if u, v := math.Float64bits(x), math.Float64bits(y); math.Signbit(x) == math.Signbit(y) && max(u, v)-min(u, v) <= 1024 {
		return fmt.Sprintf(" (%d ulp)", max(u, v)-min(u, v))
	}
	return fmt.Sprintf(" (%+.2f%%)", 100*(y-x)/math.Abs(x))
}
