// Error classification tests: the monitor duck-types the substrate error
// shapes (a simulated deadlock's BlockedOn, a real run's FailedRank) and
// must decorate the run error with the blamed plan edges — derived from
// the compiled plan's Expect release counts — plus the flight-recorder
// dump.

package monitor_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// stubDeadlock mimics sim.DeadlockError's shape without importing sim.
type stubDeadlock struct{ blocked map[string]string }

func (s *stubDeadlock) Error() string { return "simulation deadlocked" }

func (s *stubDeadlock) BlockedOn() map[string]string { return s.blocked }

// stubRankDeath mimics mpi.RankFailedError's shape.
type stubRankDeath struct{ rank int }

func (s *stubRankDeath) Error() string   { return fmt.Sprintf("rank %d failed", s.rank) }
func (s *stubRankDeath) FailedRank() int { return s.rank }

func compiled(t *testing.T) *plan.Compiled {
	t.Helper()
	m, err := grid.NewMesh(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(m, 4, 2, grid.Radius{Xi: 2, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plan.Compile(plan.SEnKF(dec, 20, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestDeadlockErrorNamesAwaitedPlanEdge(t *testing.T) {
	cp := compiled(t)
	dump := filepath.Join(t.TempDir(), "flight.json")
	m := monitor.New(monitor.Options{DumpPath: dump})
	m.BeginRun(cp)
	// A few events in the ring so the dump has content.
	m.Emit(trace.Event{Track: "io/g0/r0", Cat: trace.CatPhase, Ph: trace.PhaseSpan,
		Name: metrics.PhaseRead.String(), Ts: 0, Dur: 0.1,
		Args: []trace.Arg{{Key: trace.ArgStage, Val: 0.0}}})

	cause := &stubDeadlock{blocked: map[string]string{"comp/x0y0": "mailbox:0"}}
	err := m.EndRun(cause)
	if err == nil {
		t.Fatal("EndRun swallowed the deadlock")
	}
	var re *monitor.RunError
	if !errors.As(err, &re) {
		t.Fatalf("EndRun returned %T, want *monitor.RunError", err)
	}
	if !errors.Is(err, error(cause)) {
		t.Error("RunError does not unwrap to the original deadlock")
	}
	if len(re.Edges) == 0 {
		t.Fatal("deadlock carries no blamed plan edge")
	}
	for _, frag := range []string{"-> comp/x0y0", "member blocks expected"} {
		if !strings.Contains(re.Edges[0], frag) {
			t.Errorf("blamed edge %q missing %q", re.Edges[0], frag)
		}
	}
	if !strings.Contains(err.Error(), "waiting on plan edge") {
		t.Errorf("error text lacks the plan-edge context: %v", err)
	}
	if !strings.Contains(err.Error(), "flight recorder") {
		t.Errorf("error text lacks the flight-recorder context: %v", err)
	}
	if _, serr := os.Stat(dump); serr != nil {
		t.Errorf("flight dump not written on deadlock: %v", serr)
	}
}

func TestRankDeathErrorNamesForwardEdge(t *testing.T) {
	cp := compiled(t)
	m := monitor.New(monitor.Options{})
	m.BeginRun(cp)

	ioRank := cp.NumCompute() // world rank of the first I/O rank
	ioName := cp.IO[0].Name
	err := m.EndRun(&stubRankDeath{rank: ioRank})
	var re *monitor.RunError
	if !errors.As(err, &re) {
		t.Fatalf("EndRun returned %T, want *monitor.RunError", err)
	}
	if len(re.Edges) == 0 {
		t.Fatal("rank death carries no blamed plan edge")
	}
	if !strings.Contains(re.Edges[0], ioName+" -> ") {
		t.Errorf("forward edge %q does not start at the dead rank %s", re.Edges[0], ioName)
	}
	st := m.Status()
	found := false
	for _, inc := range st.Incidents {
		if inc.Kind == "rank-death" && inc.Proc == ioName {
			found = true
		}
	}
	if !found {
		t.Errorf("no rank-death incident for %s: %+v", ioName, st.Incidents)
	}
}

func TestEndRunNilIsNil(t *testing.T) {
	m := monitor.New(monitor.Options{})
	m.BeginRun(compiled(t))
	// An empty run is incomplete (divergences), but a nil outcome must
	// stay nil: observation never fails a healthy-by-its-own-account run.
	if err := m.EndRun(nil); err != nil {
		t.Fatalf("EndRun(nil) = %v", err)
	}
	if st := m.Status(); st.Conformance.DivergenceCount == 0 {
		t.Error("eventless run should report incomplete tracks")
	}
}

func TestDivergenceOnWrongSpan(t *testing.T) {
	cp := compiled(t)
	m := monitor.New(monitor.Options{})
	m.BeginRun(cp)
	// The plan expects comp/x0y0's first busy span to be stage 0's
	// compute; a stage-2 compute span out of nowhere must diverge.
	m.Emit(trace.Event{Track: "comp/x0y0", Cat: trace.CatPhase, Ph: trace.PhaseSpan,
		Name: metrics.PhaseCompute.String(), Ts: 0, Dur: 0.1,
		Args: []trace.Arg{{Key: trace.ArgStage, Val: 2.0}}})
	// And a track the plan has never heard of.
	m.Emit(trace.Event{Track: "comp/x9y9", Cat: trace.CatPhase, Ph: trace.PhaseSpan,
		Name: metrics.PhaseCompute.String(), Ts: 0, Dur: 0.1})

	st := m.Status()
	if st.Conformance.DivergenceCount < 2 {
		t.Fatalf("divergences = %d, want >= 2: %v", st.Conformance.DivergenceCount, st.Conformance.Divergences)
	}
	joined := strings.Join(st.Conformance.Divergences, "\n")
	for _, frag := range []string{"comp/x0y0", "unexpected track comp/x9y9"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("divergences missing %q:\n%s", frag, joined)
		}
	}
}
