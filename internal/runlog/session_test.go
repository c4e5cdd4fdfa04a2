package runlog

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"senkf/internal/figures"
	"senkf/internal/grid"
	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/report"
)

// TestFailedStartStopsSamplerAndProfiler starts a session whose -profile
// listener cannot bind after the runtime sampler and the whole-run CPU
// capture have started: Start must fail and leave neither behind — the
// process's CPU profiler is free again and no sampler goroutine survives.
func TestFailedStartStopsSamplerAndProfiler(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	before := runtime.NumGoroutine()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse([]string{
		"-archive", t.TempDir(), "-capture-profile", "-runtime-sample", "1ms",
		"-profile", held.Addr().String(), "-log-level", "error",
	}); err != nil {
		t.Fatal(err)
	}
	if s, err := f.Start(); err == nil {
		s.Finish(nil)
		t.Fatalf("Start succeeded on a held -profile address %s", held.Addr())
	}

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("CPU profiler still taken after a failed Start: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after a failed Start, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startServer starts a session on -profile 127.0.0.1:0, with -monitor when
// monitored, and returns it with a GET helper for its one server.
func startServer(t *testing.T, monitored bool) (*Session, func(path string) (*http.Response, string)) {
	t.Helper()
	args := []string{"-profile", "127.0.0.1:0", "-log-level", "error"}
	if monitored {
		args = append(args, "-monitor")
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Finish(nil) })
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Get("http://" + s.srvAddr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp, string(body)
	}
	return s, get
}

// checkServer asserts what the run's server always serves: pprof, and a
// /metrics scrape in Prometheus text that holds every fragment of want,
// types no metric family twice (one scrape renders one registry) and reads
// the Go runtime no second time (that is the sampler's runtime/* gauges).
func checkServer(t *testing.T, get func(path string) (*http.Response, string), want []string) {
	t.Helper()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		if resp, body := get(path); resp.StatusCode != http.StatusOK || body == "" {
			t.Errorf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}
	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, frag := range want {
		if !strings.Contains(body, frag) {
			t.Errorf("/metrics missing %q:\n%s", frag, body)
		}
	}
	for _, second := range []string{"senkf_go_", "senkf_process_"} {
		if strings.Contains(body, second) {
			t.Errorf("/metrics serves %s* series beside the sampler's", second)
		}
	}
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, _, _ = strings.Cut(fam, " ")
			if typed[fam] {
				t.Errorf("/metrics types %s twice", fam)
			}
			typed[fam] = true
		}
	}
}

// TestSessionServerPprof drives the run's one server without -monitor:
// pprof and /metrics (the run_info line) are there,
// /status is not.
func TestSessionServerPprof(t *testing.T) {
	s, get := startServer(t, false)
	checkServer(t, get, []string{fmt.Sprintf("senkf_run_info{run_id=%q} 1", s.RunID)})
	if resp, _ := get("/status"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/status without -monitor: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionServerMonitor drives the run's one server with -monitor: the
// monitor counts into the run's registry, so its series and the cycle
// gauges share the one /metrics scrape, and /status serves the monitor's
// JSON snapshot.
func TestSessionServerMonitor(t *testing.T) {
	mesh, err := grid.NewMesh(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(mesh, 4, 2, grid.Radius{Xi: 2, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plan.Compile(plan.SEnKF(dec, 20, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	s, get := startServer(t, true)
	s.Monitor.BeginRun(cp)
	s.RecordCycle(CycleSample{Cycle: 3, AnalysisRMSE: 0.25, Spread: 0.3})
	checkServer(t, get, []string{
		fmt.Sprintf("senkf_run_info{run_id=%q} 1", s.RunID),
		"senkf_monitor_runs 1", "senkf_cycle_rmse_analysis 0.25", "senkf_cycle_index 3",
	})

	resp, body := get("/status")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("status content type %q", ct)
	}
	var st monitor.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if st.RunID != s.RunID || st.WorldSize == 0 {
		t.Errorf("status round-trip lost fields: %+v", st)
	}
	// The CI smoke job greps for the always-present empty divergence list.
	if !strings.Contains(body, `"divergences": []`) {
		t.Errorf("/status lacks the empty divergences list:\n%s", body)
	}
}

// TestCycleSeriesHasOneWriter: Session.RecordCycle writes the archive's
// cycles.json and the registry's cycle/* series, and does so unmonitored —
// the monitor keeps no copy of either.
func TestCycleSeriesHasOneWriter(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse([]string{"-archive", dir, "-log-level", "error"}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	want := []CycleSample{
		{Cycle: 1, BackgroundRMSE: 0.5, AnalysisRMSE: 0.25, FreeRMSE: 0.75, Spread: 0.3},
		{Cycle: 2, BackgroundRMSE: 0.375, AnalysisRMSE: 0.125, FreeRMSE: 0.875, Spread: 0.2, DegradedMembers: 1},
	}
	for _, c := range want {
		s.RecordCycle(c)
	}
	if err := s.Finish(nil); err != nil {
		t.Fatal(err)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Load(s.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.Cycles != len(want) {
		t.Errorf("manifest cycles = %d, want %d", rec.Manifest.Cycles, len(want))
	}
	data, err := rec.ReadFile(CyclesFile)
	if err != nil {
		t.Fatal(err)
	}
	var got []CycleSample
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cycles.json = %+v, want %+v", got, want)
	}
	counters, err := rec.Counters()
	if err != nil {
		t.Fatal(err)
	}
	last := want[len(want)-1]
	for name, v := range map[string]float64{
		"gauge/cycle/index/value":                  2,
		"gauge/cycle/rmse_background/value":        last.BackgroundRMSE,
		"gauge/cycle/rmse_analysis/value":          last.AnalysisRMSE,
		"gauge/cycle/rmse_analysis/high-water":     0.25,
		"gauge/cycle/rmse_free/value":              last.FreeRMSE,
		"gauge/cycle/spread/value":                 last.Spread,
		"gauge/cycle/degraded_members/value":       1,
		"histogram/cycle/analysis_rmse_hist/count": 2,
		"histogram/cycle/analysis_rmse_hist/sum":   0.375,
	} {
		if counters[name] != v {
			t.Errorf("counters.json %s = %v, want %v", name, counters[name], v)
		}
	}
}

// TestMetricsScrapeAddsNothingToTheRecord: the registry is the run's one
// record of every count. /metrics renders it, the transport's own counter
// included, and a scrape adds no series to it — so the archived
// counters.json does not depend on whether anyone scraped the run.
func TestMetricsScrapeAddsNothingToTheRecord(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse([]string{"-profile", "127.0.0.1:0", "-archive", dir, "-log-level", "error"}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer.Counters().Add("mpi.msgs", 3)
	before := FlattenSnapshot(s.Registry.Snapshot())

	resp, err := http.Get("http://" + s.srvAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "# TYPE senkf_mpi_msgs counter\nsenkf_mpi_msgs 3\n") {
		t.Errorf("/metrics lacks the transport's counter:\n%s", body)
	}
	if err := s.Finish(nil); err != nil {
		t.Fatal(err)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Load(s.RunID)
	if err != nil {
		t.Fatal(err)
	}
	archived, err := rec.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if len(archived) != len(before) {
		t.Errorf("archived %d series, the registry held %d before the scrape", len(archived), len(before))
	}
	for k := range archived {
		if _, ok := before[k]; !ok {
			t.Errorf("counters.json gained %q", k)
		}
	}
	if archived["counter/mpi.msgs/value"] != 3 {
		t.Errorf("counters.json mpi.msgs = %v, want 3", archived["counter/mpi.msgs/value"])
	}
}

// TestArchivedReportIsDerived archives a traced simulated S-EnKF session
// and checks that the record stores no report.json, yet Record.Report
// equals report.Build over the session's own events on every field
// DiffRuns reads; and that a record laid out the older way, with a
// report.json beside its trace, still loads, lists and diffs, read from
// the trace.
func TestArchivedReportIsDerived(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse([]string{"-archive", dir, "-log-level", "error"}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	o := figures.QuickOptions()
	o.Cfg.Tracer = s.Tracer
	if _, _, err := figures.NewSuite(o).SEnKFAt(180); err != nil {
		t.Fatal(err)
	}
	s.Describe("senkf", "simulated", nil)
	if err := s.Finish(nil); err != nil {
		t.Fatal(err)
	}
	want, err := report.Build(s.Events())
	if err != nil {
		t.Fatal(err)
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Load(s.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Has("report.json") {
		t.Error("the record stores report.json")
	}
	if _, err := os.Stat(filepath.Join(rec.Dir, "report.json")); !os.IsNotExist(err) {
		t.Errorf("report.json in the run directory: %v", err)
	}
	got, err := rec.Report()
	if err != nil || got == nil {
		t.Fatalf("Report() = %v, %v", got, err)
	}
	if rec.Manifest.Runtime != want.Runtime {
		t.Errorf("manifest runtime %v, report.Build over the events %v", rec.Manifest.Runtime, want.Runtime)
	}
	near := func(what string, g, w float64) {
		t.Helper()
		if math.Abs(g-w) > 1e-12*math.Abs(w) {
			t.Errorf("%s: derived %v, built from the events %v", what, g, w)
		}
	}
	if len(got.CriticalPath.Attribution) != len(want.CriticalPath.Attribution) || len(want.CriticalPath.Attribution) == 0 {
		t.Errorf("critical path attribution %v, want %v", got.CriticalPath.Attribution, want.CriticalPath.Attribution)
	}
	for k, w := range want.CriticalPath.Attribution {
		near("critical path "+k, got.CriticalPath.Attribution[k], w)
	}
	near("pipeline efficiency", got.PipelineEfficiency, want.PipelineEfficiency)
	if got.Model == nil || want.Model == nil || len(got.Model.Drift.Terms) != len(want.Model.Drift.Terms) {
		t.Fatalf("drift sections differ: %+v vs %+v", got.Model, want.Model)
	}
	for i, w := range want.Model.Drift.Terms {
		g := got.Model.Drift.Terms[i]
		if g.Term != w.Term {
			t.Errorf("drift term %d is %s, want %s", i, g.Term, w.Term)
		}
		near("drift "+w.Term+" measured", g.Measured, w.Measured)
		near("drift "+w.Term+" rel err", g.RelErr, w.RelErr)
	}

	// The older layout: trace.json and a report.json that disagrees with it.
	trc, err := rec.ReadFile(TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := json.Marshal(testReport(1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	old := rec.Manifest
	old.RunID, old.Files = "run-older", nil
	if _, err := a.WriteRecord(&old, map[string][]byte{TraceFile: trc, "report.json": stale}); err != nil {
		t.Fatal(err)
	}
	rows, err := a.List(Filter{})
	if err != nil || len(rows) != 2 {
		t.Fatalf("List = %+v, %v", rows, err)
	}
	d, err := a.DiffRuns("run-older", s.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if d.Efficiency == nil || d.Efficiency.A != d.Efficiency.B || len(d.Drift) != len(want.Model.Drift.Terms) || len(d.CriticalPath) != len(want.CriticalPath.Attribution) {
		t.Errorf("the older record does not diff like its trace: %+v", d)
	}
	for _, v := range d.CriticalPath {
		if v.Delta != 0 {
			t.Errorf("critical path %s moved %v between two records of one trace", v.Name, v.Delta)
		}
	}
}
