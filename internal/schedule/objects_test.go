package schedule

import (
	"runtime"
	"testing"

	"senkf/internal/costmodel"
)

// TestSimulationObjectsPerRank holds a paper-machine simulation to a few
// objects per world rank, plan.Compile included, at the benchmark's tuning
// constraints: a rank is a body cut from a slab, a process and its share of
// the plan, mailboxes and ledger. A rank that grew a goroutine-backed
// coroutine again (about 13 objects) fails both bounds.
func TestSimulationObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts wander under the race detector")
	}
	runtime.GC() // the first collection's mark workers are counted mallocs
	cfg := DefaultConfig()
	for _, np := range []int{60, 500} {
		tuned, ok := cfg.P.AutoTuneConstrained(np, 0.001, costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12})
		if !ok {
			t.Fatalf("np=%d: no configuration", np)
		}
		nsdx, nsdy, err := ChooseDecomposition(cfg.P, np)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			bound float64
			run   func() (Result, error)
		}{
			{"S-EnKF", 9, func() (Result, error) { return SimulateSEnKF(cfg, tuned.Choice) }},
			{"P-EnKF", 5, func() (Result, error) { return SimulatePEnKF(cfg, nsdx, nsdy) }},
		} {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			objects := testing.AllocsPerRun(3, func() {
				if _, err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
			perRank := objects / float64(res.NP)
			t.Logf("np=%d %s: %.0f objects over %d ranks, %.2f per rank", np, c.name, objects, res.NP, perRank)
			if perRank > c.bound {
				t.Errorf("np=%d %s: %.2f objects per rank (%.0f over %d), want at most %g", np, c.name, perRank, objects, res.NP, c.bound)
			}
		}
	}
}
