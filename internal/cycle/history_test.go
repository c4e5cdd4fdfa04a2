package cycle

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"senkf/internal/ckpt"
)

// historyStats is n generated history entries; the RMSEs have full-precision
// mantissas and run through exponents, so their JSON is as long as it gets.
func historyStats(n int) []Stats {
	h := make([]Stats, n)
	for i := range h {
		x := float64(i + 1)
		h[i] = Stats{Cycle: i, BackgroundRMSE: math.Sqrt(x) / 7, AnalysisRMSE: 1 / (3 * x),
			FreeRMSE: math.Exp(x / 97), Spread: math.Pi * x * 1e-9}
	}
	return h
}

// TestHistoryEncodingIsMarshal holds the checkpointer's kept history encoding
// to json.Marshal: over a history growing from nil to 600 entries, when it
// shrinks, when its last kept entry changes and when it is a restored copy.
func TestHistoryEncodingIsMarshal(t *testing.T) {
	stats := historyStats(600)
	var e historyJSON
	check := func(what string, h []Stats) {
		t.Helper()
		got, err := e.encode(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (%d entries): %.80s…, want %.80s…", what, len(h), got, want)
		}
	}
	check("nil", nil)
	check("empty", []Stats{})
	for n := 0; n <= len(stats); n++ {
		check("growing", stats[:n])
	}
	check("the same again", stats)
	check("shorter", stats[:300])
	changed := append([]Stats(nil), stats...)
	changed[449].Spread = math.Copysign(0, -1)
	check("last kept entry changed", changed[:450])
	changed[449].Spread = 0 // == -0, but encoded "0", not "-0"
	check("last kept entry changed to an equal value", changed)
	check("nil after entries", nil)

	// A restored history is a copy decoded from the checkpoint's JSON.
	var restored []Stats
	data, _ := json.Marshal(stats[:300])
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	e = historyJSON{}
	check("restored", restored)
	check("restored and extended", append(restored, stats[300:]...))

	// A value JSON cannot encode fails as json.Marshal does, and the next
	// encoding starts afresh.
	bad := append([]Stats(nil), stats[:10]...)
	bad[9].FreeRMSE = math.NaN()
	if _, err := e.encode(bad); err == nil {
		t.Fatal("NaN history encoded")
	}
	check("after a failure", stats[:12])
}

// TestCheckpointManifestsAreUnchanged: a checkpoint the Checkpointer lands
// after a run of 0, 1 or 600 cycles — fresh, or resumed from a restored
// checkpoint halfway — has the manifest ckpt.Write renders for the same state
// with json.Marshal's history, byte for byte.
func TestCheckpointManifestsAreUnchanged(t *testing.T) {
	cfg, truth, ens := testSetup(t)
	stats := historyStats(600)
	manifest := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(path, ckpt.ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// run drives a fresh checkpointer's hook over cycles [from, to) with
	// history h[:k] at cycle k, lands the last and returns its directory.
	run := func(h []Stats, from, to int) string {
		t.Helper()
		dir := t.TempDir()
		cp := checkpointer(dir)
		cp.Every = math.MaxInt
		hook := cp.Hook(cfg)
		for k := from; k <= to; k++ {
			if err := hook(State{NextCycle: k + 1, Truth: truth, Ensemble: ens, Free: ens, History: h[:k:k]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cp.Flush(); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, ckpt.DirName(to))
	}
	for _, n := range []int{0, 1, 600} {
		hist, err := json.Marshal(stats[:n:n])
		if err != nil {
			t.Fatal(err)
		}
		cp := checkpointer("")
		want, err := ckpt.Write(t.TempDir(), cfg.Enkf.Mesh, ckpt.State{
			Cycle: n, Truth: truth, Ensemble: ens, Free: ens, History: hist,
			Seed: cp.Seed, Config: cp.Config, PlanHash: cp.PlanHash, RunID: cp.RunID,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := run(stats, 0, n); !bytes.Equal(manifest(got), manifest(want)) {
			t.Errorf("%d cycles, fresh: the manifest differs from ckpt.Write's", n)
		}

		// Resumed: the first half's checkpoint restored, the rest run by a
		// new checkpointer on the restored history.
		l, err := ckpt.Load(run(stats, 0, n/2))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Restore(l)
		if err != nil {
			t.Fatal(err)
		}
		h := append(st.History, stats[n/2:n]...)
		if got := run(h, n/2, n); !bytes.Equal(manifest(got), manifest(want)) {
			t.Errorf("%d cycles, resumed at %d: the manifest differs from ckpt.Write's", n, n/2)
		}
	}
}
