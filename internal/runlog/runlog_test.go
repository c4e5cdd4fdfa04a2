package runlog

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"senkf/internal/costmodel"
	"senkf/internal/report"
	"senkf/internal/trace"
)

func TestNewRunIDDeterministic(t *testing.T) {
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	entropy := bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef})
	got := NewRunID("senkf-run", start, entropy)
	if want := "run-20260102T030405Z-deadbeef"; got != want {
		t.Fatalf("NewRunID = %q, want %q", got, want)
	}
	// Non-senkf binary names pass through; empty short falls back.
	if got := NewRunID("senkf-", start, bytes.NewReader([]byte{1, 2, 3, 4})); !strings.HasPrefix(got, "run-") {
		t.Errorf("empty short name should fall back to run-: %q", got)
	}
}

// TestGoldenManifest pins the manifest.json wire format: schema version,
// field names, content addressing, and the two-space-indent rendering.
// Any change here is a ledger format change and must bump ManifestSchema.
func TestGoldenManifest(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		RunID:     "run-20260102T030405Z-deadbeef",
		Binary:    "senkf-run",
		Start:     "2026-01-02T03:04:05Z",
		DurationS: 1.5,
		Substrate: "real",
		Config:    map[string]string{"algo": "senkf", "monitor": "true"},
		Spec: &SpecInfo{
			Algorithm: "S-EnKF", NSdx: 4, NSdy: 2, N: 16, L: 4, NCg: 2,
			Reader: "staggered", WorldSize: 12,
		},
		PlanHash: "sha256:0123",
		Outcome:  "ok",
		Runtime:  1.25,
		Verdicts: 3,
	}
	if _, err := a.WriteRecord(m, map[string][]byte{CountersFile: []byte("{}\n")}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(a.RunDir(m.RunID), ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "schema": 1,
  "run_id": "run-20260102T030405Z-deadbeef",
  "binary": "senkf-run",
  "start_utc": "2026-01-02T03:04:05Z",
  "duration_s": 1.5,
  "substrate": "real",
  "config": {
    "algo": "senkf",
    "monitor": "true"
  },
  "spec": {
    "algorithm": "S-EnKF",
    "nsdx": 4,
    "nsdy": 2,
    "n": 16,
    "l": 4,
    "ncg": 2,
    "reader": "staggered",
    "world_size": 12
  },
  "plan_hash": "sha256:0123",
  "outcome": "ok",
  "runtime_s": 1.25,
  "verdicts": 3,
  "files": {
    "counters.json": "sha256:ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356"
  }
}
`
	if string(raw) != golden {
		t.Errorf("manifest.json drifted from the golden rendering:\ngot:\n%s\nwant:\n%s", raw, golden)
	}
}

// TestRoundTrip pins that a written record loads back bit-identically and
// that content addressing catches corruption.
func TestRoundTrip(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{RunID: "run-1", Binary: "senkf-run", Start: "2026-01-02T03:04:05Z", Outcome: "ok"}
	payload := []byte(`{"counter/io/read bytes/value": 42}` + "\n")
	dir, err := a.WriteRecord(m, map[string][]byte{CountersFile: payload})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Load("run-1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err := json.MarshalIndent(rec.Manifest, "", "  "); err != nil || !bytes.Equal(append(loaded, '\n'), want) {
		t.Errorf("the loaded manifest encodes as\n%s\nthe stored one is\n%s", loaded, want)
	}
	got, err := rec.ReadFile(CountersFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadFile = %q, want %q", got, payload)
	}
	c, err := rec.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c["counter/io/read bytes/value"] != 42 {
		t.Errorf("Counters round trip = %v", c)
	}

	// Corrupt the attached file: the content address must catch it.
	if err := os.WriteFile(filepath.Join(dir, CountersFile), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec2, err := a.Load("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec2.ReadFile(CountersFile); err == nil {
		t.Error("ReadFile accepted a corrupted attached file")
	}
}

func TestWriteRecordRejectsBadNames(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestFile, "../escape.json", "/abs.json"} {
		m := &Manifest{RunID: "run-x", Outcome: "ok"}
		if _, err := a.WriteRecord(m, map[string][]byte{name: []byte("x")}); err == nil {
			t.Errorf("WriteRecord accepted attached file name %q", name)
		}
	}
}

func TestResolve(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"run-aaa1", "run-aaa2", "cycle-bbb"} {
		if _, err := a.WriteRecord(&Manifest{RunID: id, Outcome: "ok"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := a.Resolve("cycle"); err != nil || got != "cycle-bbb" {
		t.Errorf("Resolve(cycle) = %q, %v", got, err)
	}
	if got, err := a.Resolve("run-aaa1"); err != nil || got != "run-aaa1" {
		t.Errorf("Resolve(exact) = %q, %v", got, err)
	}
	if _, err := a.Resolve("run-aaa"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Resolve(ambiguous) err = %v", err)
	}
	if _, err := a.Resolve("nope"); err == nil {
		t.Errorf("Resolve(miss) err = nil")
	}
}

// testReport builds a minimal but well-formed run report, the report.json
// a record of the older layout carries beside its trace.
func testReport(runtime, eff float64) *report.Report {
	return &report.Report{
		Schema:             report.Schema,
		Runtime:            runtime,
		PipelineEfficiency: eff,
		Stages: []report.StageOverlap{
			{Stage: 0, IOBusy: 0.5, Hidden: 0.4, Efficiency: 0.8},
		},
		CriticalPath: report.CritPathSummary{
			Attribution: map[string]float64{"comp/compute": runtime * 0.7, "io/read": runtime * 0.3},
		},
		Model: &report.ModelSection{
			Drift: costmodel.DriftReport{
				Terms: []costmodel.TermDrift{
					{Term: "t_read", Predicted: 1, Measured: runtime * 0.3, RelErr: runtime*0.3 - 1},
					{Term: "t_total", Predicted: 2, Measured: runtime, RelErr: runtime/2 - 1},
				},
			},
		},
	}
}

// testTrace builds a minimal traced two-stage run that ends at runtime:
// one I/O and one compute track, a critical path of io/read for the first
// 30% and comp/compute for the rest, a stage-1 read of which eff is
// hidden behind the computation, and a cost-model prediction, so its
// report carries every section DiffRuns reads.
func testTrace(runtime, eff float64) []trace.Event {
	span := func(track, phase string, start, end float64, stage int) trace.Event {
		return trace.Event{Track: track, Cat: trace.CatPhase, Name: phase, Ph: trace.PhaseSpan,
			Ts: start, Dur: end - start, Args: []trace.Arg{{Key: trace.ArgStage, Val: float64(stage)}}}
	}
	first, late := 0.3*runtime, 0.2*runtime
	pred := trace.Event{Track: trace.ModelTrack, Cat: trace.CatModel, Name: "prediction", Ph: trace.PhaseInstant,
		Args: []trace.Arg{{Key: "nsdx", Val: 1}, {Key: "nsdy", Val: 1}, {Key: "l", Val: 2}, {Key: "ncg", Val: 1},
			{Key: "n", Val: 4}, {Key: "nx", Val: 8}, {Key: "ny", Val: 4}, {Key: "xi", Val: 1}, {Key: "eta", Val: 1},
			{Key: "h", Val: 1}, {Key: "a", Val: 1e-3}, {Key: "b", Val: 1e-6}, {Key: "c", Val: 1e-2}, {Key: "theta", Val: 1e-3}}}
	return []trace.Event{
		pred,
		span("io/g0/r0", "read", 0, first, 0),
		span("io/g0/r0", "read", first-(1-eff)*late, first+eff*late, 1),
		span("comp/x0y0", "compute", first, runtime, 0),
	}
}

// archiveRun stores a record the way a session does: trace.json (see
// testTrace), counters.json when counters is non-nil, and a manifest whose
// runtime headline is the trace's last span end.
func archiveRun(t testing.TB, a *Archive, id, binary, start string, runtime float64, eff float64, counters map[string]float64) {
	t.Helper()
	files := map[string][]byte{}
	data, err := chromeBytes(testTrace(runtime, eff))
	if err != nil {
		t.Fatal(err)
	}
	files[TraceFile] = data
	if counters != nil {
		data, err := json.Marshal(counters)
		if err != nil {
			t.Fatal(err)
		}
		files[CountersFile] = data
	}
	m := &Manifest{
		RunID: id, Binary: binary, Start: start, Outcome: "ok", Runtime: runtime,
		Spec:     &SpecInfo{Algorithm: "S-EnKF"},
		PlanHash: "sha256:feed",
		Config:   map[string]string{"algo": "senkf", "members": "16"},
	}
	if _, err := a.WriteRecord(m, files); err != nil {
		t.Fatal(err)
	}
}

func TestListFilterAndOrder(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	archiveRun(t, a, "run-2", "senkf-run", "2026-01-02T00:00:00Z", 2.0, 0.9, nil)
	archiveRun(t, a, "run-1", "senkf-run", "2026-01-01T00:00:00Z", 1.0, 0.9, nil)
	if _, err := a.WriteRecord(&Manifest{RunID: "gen-1", Binary: "senkf-gen", Start: "2026-01-03T00:00:00Z", Outcome: "ok"}, nil); err != nil {
		t.Fatal(err)
	}

	all, err := a.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].RunID != "run-1" || all[2].RunID != "gen-1" {
		t.Fatalf("List order = %+v", all)
	}
	runs, err := a.List(Filter{Binary: "senkf-run", Algorithm: "S-EnKF"})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("filtered List = %+v", runs)
	}
	var buf bytes.Buffer
	if err := WriteListTable(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "run-1") || !strings.Contains(buf.String(), "2 run(s)") {
		t.Errorf("list table:\n%s", buf.String())
	}
}

// TestListRuntimeColumns pins where the list's PEAK-HEAP and GC-PAUSE
// columns come from: the high-water marks of the sampler's gauges in
// counters.json, blank for a record without them.
func TestListRuntimeColumns(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	archiveRun(t, a, "run-1", "senkf-run", "2026-01-01T00:00:00Z", 1.0, 0.9, map[string]float64{
		"gauge/runtime/heap_inuse_bytes/value":      3 << 20,
		"gauge/runtime/heap_inuse_bytes/high-water": 48 << 20,
		"gauge/runtime/gc_pause_max_s/value":        0,
		"gauge/runtime/gc_pause_max_s/high-water":   0.0025,
	})
	archiveRun(t, a, "run-2", "senkf-run", "2026-01-02T00:00:00Z", 1.0, 0.9, nil)

	rows, err := a.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].RunID != "run-1" {
		t.Fatalf("List = %+v", rows)
	}
	if rows[0].PeakHeapBytes != 48<<20 || rows[0].MaxGCPauseS != 0.0025 {
		t.Errorf("run-1 runtime columns = %g B, %g s; want the gauges' high-water marks %d B, 0.0025 s",
			rows[0].PeakHeapBytes, rows[0].MaxGCPauseS, 48<<20)
	}
	if rows[1].PeakHeapBytes != 0 || rows[1].MaxGCPauseS != 0 {
		t.Errorf("run-2 archived no gauges but reads %g B, %g s", rows[1].PeakHeapBytes, rows[1].MaxGCPauseS)
	}

	var buf bytes.Buffer
	if err := WriteListTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	fields := func(line string) []string {
		f := strings.Fields(line)
		return f[len(f)-3 : len(f)-1] // PEAK-HEAP, GC-PAUSE; LINEAGE last
	}
	if got := fields(lines[1]); got[0] != "48MiB" || got[1] != "2.5ms" {
		t.Errorf("run-1 renders PEAK-HEAP, GC-PAUSE as %q:\n%s", got, buf.String())
	}
	if got := fields(lines[2]); got[0] != "-" || got[1] != "-" {
		t.Errorf("run-2 renders PEAK-HEAP, GC-PAUSE as %q, want blanks:\n%s", got, buf.String())
	}
}

func TestDiffRuns(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	archiveRun(t, a, "run-a", "senkf-run", "2026-01-01T00:00:00Z", 1.0, 0.9,
		map[string]float64{"counter/io/reads/value": 100, "gauge/q/value": 5})
	archiveRun(t, a, "run-b", "senkf-run", "2026-01-02T00:00:00Z", 2.0, 0.8,
		map[string]float64{"counter/io/reads/value": 160, "gauge/q/value": 5})

	d, err := a.DiffRuns("run-a", "run-b")
	if err != nil {
		t.Fatal(err)
	}
	if !d.PlanEqual {
		t.Error("equal plan hashes should report PlanEqual")
	}
	if len(d.Config) != 0 {
		t.Errorf("identical configs should produce no deltas: %+v", d.Config)
	}
	if d.Efficiency == nil || d.Efficiency.Delta >= 0 {
		t.Errorf("pipeline efficiency delta = %+v", d.Efficiency)
	}
	if len(d.Drift) != 4 { // t_read, t_comm, t_comp and t_total
		t.Errorf("drift terms = %+v", d.Drift)
	}
	if len(d.Counters) != 1 || d.Counters[0].Name != "counter/io/reads/value" || d.Counters[0].Delta != 60 {
		t.Errorf("counter deltas = %+v", d.Counters)
	}
	if len(d.CriticalPath) != 2 {
		t.Errorf("critical path deltas = %+v", d.CriticalPath)
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: identical", "runtime: 1s -> 2s", "t_total", "counter/io/reads/value"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("diff text missing %q:\n%s", want, buf.String())
		}
	}

	// Prefix resolution through DiffRuns.
	if _, err := a.DiffRuns("run-a", "run-"); err == nil {
		t.Error("ambiguous prefix should error")
	}
}

func TestFlagsValidate(t *testing.T) {
	newFlags := func(args ...string) (*Flags, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, "senkf-test")
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		return f, f.validate()
	}
	if _, err := newFlags("-flight-recorder", "x.json"); err == nil {
		t.Error("-flight-recorder without -monitor should fail validation")
	}
	if _, err := newFlags("-log-level", "loud"); err == nil {
		t.Error("bad -log-level should fail validation")
	}
	f, err := newFlags("-monitor", "-profile", "localhost:1", "-trace", "t.json")
	if err != nil {
		t.Fatalf("valid combination rejected: %v", err)
	}
	cfg := f.config()
	if cfg["monitor"] != "true" || cfg["trace"] != "t.json" {
		t.Errorf("config snapshot = %v", cfg)
	}
}

func TestFlattenSnapshot(t *testing.T) {
	reg := trace.NewRegistry()
	reg.Inc("io/reads")
	reg.Add("io/bytes", 7)
	got := FlattenSnapshot(reg.Snapshot())
	if got["counter/io/reads/value"] != 1 || got["counter/io/bytes/value"] != 7 {
		t.Errorf("FlattenSnapshot = %v", got)
	}
}

// TestManifestWriteIsAtomic pins the crash protocol: the manifest is
// staged under a temporary name and renamed into place, so a finished
// write leaves no temp file, and a run directory whose write died before
// the rename (attachments plus a torn staged manifest) is not a record —
// List over an archive holding one still succeeds.
func TestManifestWriteIsAtomic(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	archiveRun(t, a, "run-ok", "senkf-run", "2026-01-01T00:00:00Z", 1.0, 0.9, nil)
	if _, err := a.WriteRecord(&Manifest{RunID: "run-prof", Outcome: "ok"},
		map[string][]byte{CPUProfileFile: []byte("pprof")}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"run-ok", "run-prof"} {
		err := filepath.WalkDir(a.RunDir(id), func(path string, d os.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(d.Name(), ".tmp") {
				t.Errorf("%s left behind after WriteRecord", path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	crashed := a.RunDir("run-crashed")
	if err := os.MkdirAll(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, CountersFile), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, manifestTemp), []byte(`{"schema": 1, "run_id": "run-cr`), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := a.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, ",") != "run-ok,run-prof" {
		t.Errorf("IDs = %v, want the two finished runs only", ids)
	}
	rows, err := a.List(Filter{})
	if err != nil {
		t.Fatalf("List over an archive with a crashed write: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("List = %+v, want the two finished runs", rows)
	}
}
