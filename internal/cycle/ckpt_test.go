package cycle

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"senkf/internal/ckpt"
	"senkf/internal/core"
	"senkf/internal/grid"
	"senkf/internal/monitor"
	"senkf/internal/trace"
)

var errSimulatedCrash = errors.New("simulated crash")

// crashAfter composes a checkpoint hook with a crash at the boundary after
// cycle k — the checkpoint lands, then the process "dies".
func crashAfter(inner Hook, k int) Hook {
	return func(st State) error {
		if err := inner(st); err != nil {
			return err
		}
		if st.NextCycle-1 == k {
			return errSimulatedCrash
		}
		return nil
	}
}

func checkpointer(dir string) *Checkpointer {
	return &Checkpointer{
		Dir:  dir,
		Seed: 20190216,
		Config: map[string]string{
			"nx": "24", "ny": "12",
		},
		PlanHash: "sha256:test",
		RunID:    "test-run",
	}
}

// runKillResumeMatrix crashes an experiment after every cycle boundary in
// turn, resumes each from its latest checkpoint, and demands the stitched
// history be bit-identical to the uninterrupted run — the core resilience
// guarantee: a crash plus resume is invisible in the results.
func runKillResumeMatrix(t *testing.T, cycles int, mkAnalyzer func(t *testing.T) Analyzer) {
	t.Helper()
	cfg, truth, ens := testSetup(t)
	baseline, err := Run(cfg, truth, ens, cycles, mkAnalyzer(t))
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k < cycles-1; k++ {
		dir := t.TempDir()
		cp := checkpointer(dir)
		_, err := RunFrom(cfg, State{Truth: truth, Ensemble: ens}, cycles,
			mkAnalyzer(t), nil, crashAfter(cp.Hook(cfg), k))
		if !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("kill after cycle %d: err = %v, want simulated crash", k, err)
		}

		l, skipped, err := ckpt.Latest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(skipped) != 0 {
			t.Fatalf("kill after cycle %d: skipped %v", k, skipped)
		}
		if l == nil || l.State.Cycle != k {
			t.Fatalf("kill after cycle %d: latest checkpoint is %+v", k, l)
		}
		st, err := Restore(l)
		if err != nil {
			t.Fatal(err)
		}
		if st.NextCycle != k+1 {
			t.Fatalf("kill after cycle %d: resume at %d", k, st.NextCycle)
		}
		resumed, err := RunFrom(cfg, st, cycles, mkAnalyzer(t), nil, nil)
		if err != nil {
			t.Fatalf("kill after cycle %d: resume: %v", k, err)
		}
		if len(resumed) != len(baseline) {
			t.Fatalf("kill after cycle %d: %d cycles after resume, want %d", k, len(resumed), len(baseline))
		}
		for i := range baseline {
			if resumed[i] != baseline[i] {
				t.Fatalf("kill after cycle %d: cycle %d diverged: %+v vs %+v", k, i, resumed[i], baseline[i])
			}
		}
	}
}

func TestKillResumeMatrixSerial(t *testing.T) {
	runKillResumeMatrix(t, 5, func(t *testing.T) Analyzer { return SerialAnalyzer() })
}

func TestKillResumeMatrixSEnKF(t *testing.T) {
	cfg, _, _ := testSetup(t)
	dec, err := grid.NewDecomposition(cfg.Enkf.Mesh, 4, 2, cfg.Enkf.Radius)
	if err != nil {
		t.Fatal(err)
	}
	runKillResumeMatrix(t, 3, func(t *testing.T) Analyzer {
		return SEnKFAnalyzer(core.Problem{Dir: t.TempDir()}, core.Plan{Dec: dec, L: 3, NCg: 2})
	})
}

// TestResumePastCorruptedCheckpoint corrupts the newest checkpoint after a
// crash: resume must fall back to the previous one and still reproduce the
// uninterrupted history exactly.
func TestResumePastCorruptedCheckpoint(t *testing.T) {
	const cycles = 4
	cfg, truth, ens := testSetup(t)
	baseline, err := Run(cfg, truth, ens, cycles, SerialAnalyzer())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cp := checkpointer(dir)
	_, err = RunFrom(cfg, State{Truth: truth, Ensemble: ens}, cycles,
		SerialAnalyzer(), nil, crashAfter(cp.Hook(cfg), 2))
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("err = %v", err)
	}

	// Tear the newest checkpoint's manifest, as a crash mid-write would.
	man := filepath.Join(dir, ckpt.DirName(2), ckpt.ManifestFile)
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l, skipped, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || l == nil || l.State.Cycle != 1 {
		t.Fatalf("latest = %+v, skipped = %v; want cycle 1 with one skip", l, skipped)
	}
	st, err := Restore(l)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunFrom(cfg, st, cycles, SerialAnalyzer(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline {
		if resumed[i] != baseline[i] {
			t.Fatalf("cycle %d diverged after fallback resume", i)
		}
	}
}

// TestCheckpointEveryAndKeep checks the cadence and retention knobs.
func TestCheckpointEveryAndKeep(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	dir := t.TempDir()
	cp := checkpointer(dir)
	cp.Every = 2
	cp.Keep = 2
	if _, err := RunFrom(cfg, State{Truth: truth, Ensemble: ens}, 6,
		SerialAnalyzer(), nil, cp.Hook(cfg)); err != nil {
		t.Fatal(err)
	}
	// Cycles 1, 3, 5 hit the cadence; Keep=2 retains 3 and 5.
	got, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 3 {
		t.Fatalf("checkpoints on disk: %v, want [5 3]", got)
	}
	if cp.LastCycle() != 5 {
		t.Fatalf("LastCycle = %d", cp.LastCycle())
	}

	// Flush with nothing pending past the last write is a no-op...
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...but after an off-cadence cycle it cuts the pending snapshot — the
	// graceful-interrupt path.
	cp2 := checkpointer(t.TempDir())
	cp2.Every = 10
	if _, err := RunFrom(cfg, State{Truth: truth, Ensemble: ens}, 3,
		SerialAnalyzer(), nil, cp2.Hook(cfg)); err != nil {
		t.Fatal(err)
	}
	if cp2.LastCycle() != -1 {
		t.Fatalf("cadence-10 run wrote checkpoint at cycle %d", cp2.LastCycle())
	}
	if err := cp2.Flush(); err != nil {
		t.Fatal(err)
	}
	if cp2.LastCycle() != 2 {
		t.Fatalf("Flush cut cycle %d, want 2", cp2.LastCycle())
	}
}

// TestResizedResumeConformance resumes a crashed S-EnKF experiment with a
// grown ensemble: the plan recompiles for the new member count and the live
// conformance monitor must see zero divergences against the new DAG.
func TestResizedResumeConformance(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	dec, err := grid.NewDecomposition(cfg.Enkf.Mesh, 4, 2, cfg.Enkf.Radius)
	if err != nil {
		t.Fatal(err)
	}

	const cycles = 3
	dir := t.TempDir()
	cp := checkpointer(dir)
	_, err = RunFrom(cfg, State{Truth: truth, Ensemble: ens}, cycles,
		SEnKFAnalyzer(core.Problem{Dir: t.TempDir()}, core.Plan{Dec: dec, L: 3, NCg: 2}), nil, crashAfter(cp.Hook(cfg), 0))
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("err = %v", err)
	}

	l, _, err := ckpt.Latest(dir)
	if err != nil || l == nil {
		t.Fatalf("latest: %v %v", l, err)
	}
	st, err := Restore(l)
	if err != nil {
		t.Fatal(err)
	}

	// Elastic growth: 20 → 26 members, ensemble and control alike.
	newN := cfg.Enkf.N + 6
	st.Ensemble, err = ckpt.ResizeEnsemble(cfg.Enkf.Mesh, st.Ensemble, newN, 7)
	if err != nil {
		t.Fatal(err)
	}
	st.Free, err = ckpt.ResizeEnsemble(cfg.Enkf.Mesh, st.Free, newN, 8)
	if err != nil {
		t.Fatal(err)
	}
	grown := cfg
	grown.Enkf.N = newN

	mon := monitor.New(monitor.Options{})
	defer mon.Close()
	tr := trace.New(nil, mon.Tee(nil))
	analyzer := SEnKFAnalyzer(core.Problem{Dir: t.TempDir(), Tr: tr, Obs: mon}, core.Plan{Dec: dec, L: 3, NCg: 2})
	resumed, err := RunFrom(grown, st, cycles, analyzer, nil, nil)
	if err != nil {
		t.Fatalf("resized resume: %v", err)
	}
	if len(resumed) != cycles {
		t.Fatalf("resumed history has %d cycles, want %d", len(resumed), cycles)
	}
	status := mon.Status()
	if status.Conformance.DivergenceCount != 0 {
		t.Fatalf("resized resume diverged from the recompiled plan: %v", status.Conformance.Divergences)
	}
	if status.Conformance.MatchedSpans == 0 {
		t.Fatal("monitor matched no spans — conformance never engaged")
	}
}
