// End-to-end acceptance of the run ledger through the public facade: a
// session-driven run must trace byte-identically to the seed's hand-wired
// sink stack, and an archived run must come back out of the ledger with a
// verifying manifest, a report, and usable list/diff queries.
package senkf

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"senkf/internal/figures"
	"senkf/internal/trace"
)

// sessionQuickSuite runs the same quick-scale S-EnKF simulation as
// tracedQuickSuite, but through a RunSession built from the shared
// observability flags, and returns the session plus its flag set's
// -trace output path.
func sessionQuickSuite(t *testing.T, np int, args ...string) *RunSession {
	t.Helper()
	fs := flag.NewFlagSet("senkf-bench", flag.ContinueOnError)
	obs := RegisterRunFlags(fs, "senkf-bench")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sess, err := obs.Start()
	if err != nil {
		t.Fatal(err)
	}
	o := figures.QuickOptions()
	o.Cfg.Tracer = sess.Tracer
	o.Cfg.Obs = sess.Observer()
	s := NewFigureSuite(o)
	if _, _, err := s.SEnKFAt(np); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionTraceMatchesSeedWiring pins that an unarchived, unmonitored
// session-driven run writes the byte-identical Chrome trace the original
// hand-wired binaries produced: the run ledger must not perturb the
// primary sink path. The simulated substrate stamps virtual timestamps,
// so the comparison is exact.
func TestSessionTraceMatchesSeedWiring(t *testing.T) {
	// Seed wiring: plain buffer + wall tracer, exactly as the binaries
	// did before the session existed.
	events := tracedQuickSuite(t, 180)
	var want bytes.Buffer
	if err := trace.WriteChrome(&want, events); err != nil {
		t.Fatal(err)
	}

	// Session wiring: -trace only — no archive, no monitor.
	out := filepath.Join(t.TempDir(), "trace.json")
	sess := sessionQuickSuite(t, 180, "-trace", out)
	if err := sess.Finish(nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("session trace differs from seed wiring: %d vs %d bytes", len(got), want.Len())
	}
}

// TestArchivedRunEndToEnd drives the tentpole loop through the facade:
// archive a monitored simulated run, load it back with a verifying
// manifest, and query it via list/diff.
func TestArchivedRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sessA := sessionQuickSuite(t, 180, "-archive", dir)
	sessA.Describe("senkf", "simulated", nil)
	if err := sessA.Finish(nil); err != nil {
		t.Fatal(err)
	}
	sessB := sessionQuickSuite(t, 180, "-archive", dir, "-monitor")
	sessB.Describe("senkf", "simulated", nil)
	if err := sessB.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if sessA.RunID == sessB.RunID {
		t.Fatalf("two sessions share run ID %s", sessA.RunID)
	}

	a, err := OpenRunArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.List(RunFilter{Binary: "senkf-bench"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("List = %+v", rows)
	}
	for _, row := range rows {
		if row.Runtime <= 0 {
			t.Errorf("run %s has no runtime headline", row.RunID)
		}
	}

	// The archived record must verify and carry a parsable report whose
	// runtime matches the manifest headline.
	rec, err := a.Load(sessB.RunID)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Runtime != rec.Manifest.Runtime {
		t.Fatalf("report runtime %v vs manifest %v", rep, rec.Manifest.Runtime)
	}
	if !rec.Has("monitor.json") {
		t.Error("monitored run archived no monitor.json")
	}
	var mon struct {
		RunID string `json:"run_id"`
	}
	monData, err := rec.ReadFile("monitor.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(monData, &mon); err != nil {
		t.Fatal(err)
	}
	if mon.RunID != sessB.RunID {
		t.Errorf("monitor status names run %q, session was %q", mon.RunID, sessB.RunID)
	}

	// Diff by unique prefix; the two runs executed the identical virtual
	// schedule, so runtimes agree.
	d, err := a.DiffRuns(sessA.RunID, sessB.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if d.RuntimeA != d.RuntimeB {
		t.Errorf("deterministic suite runtimes differ: %g vs %g", d.RuntimeA, d.RuntimeB)
	}
	var cfgDelta []string
	for _, c := range d.Config {
		cfgDelta = append(cfgDelta, c.Key)
	}
	if !strings.Contains(strings.Join(cfgDelta, ","), "monitor") {
		t.Errorf("config delta should include the monitor flag: %v", cfgDelta)
	}
}
