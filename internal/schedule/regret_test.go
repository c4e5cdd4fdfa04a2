package schedule

import (
	"runtime"
	"slices"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/par"
)

// TestTunedLayoutRegret simulates every layout the tuner may choose at its
// own compute cost for the benchmark's machine (np = 500, L and n_cg at most
// 12: C2 = 480 compute ranks and at most 20 I/O ranks) and holds the regret
// of the cost model's argmin — the layout of least Eq. 10 total time — to
// 0.5% of the simulated best. The model prices each layout analytically; the
// simulator replays its plan with queueing at the OSTs and the backbone, so
// this is the tuner (§4.4) checked against the machine it tunes for.
func TestTunedLayoutRegret(t *testing.T) {
	const np, maxRegret = 500, 0.005
	cfg := DefaultConfig()
	tc := costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12}
	tuned, ok := cfg.P.AutoTuneConstrained(np, 0.001, tc)
	if !ok {
		t.Fatalf("np=%d: no configuration", np)
	}
	c2 := tuned.Choice.C2()
	var layouts []costmodel.Choice
	for nsdy := 1; nsdy <= c2; nsdy++ {
		for ncg := 1; ncg <= tc.MaxNCg; ncg++ {
			for l := 1; l <= tc.MaxL; l++ {
				ch := costmodel.Choice{NSdx: c2 / nsdy, NSdy: nsdy, L: l, NCg: ncg}
				if c2%nsdy == 0 && ch.C1() <= np-c2 && cfg.P.Feasible(ch) {
					layouts = append(layouts, ch)
				}
			}
		}
	}
	runtimes := make([]float64, len(layouts))
	if err := par.Do(len(layouts), runtime.GOMAXPROCS(0), func(_, i int) error {
		res, err := SimulateSEnKF(cfg, layouts[i])
		runtimes[i] = res.Runtime
		return err
	}); err != nil {
		t.Fatal(err)
	}
	argmin, best := 0, 0
	for i, ch := range layouts {
		if cfg.P.TTotal(ch) < cfg.P.TTotal(layouts[argmin]) {
			argmin = i
		}
		if runtimes[i] < runtimes[best] {
			best = i
		}
	}
	rank := 1 + len(slices.DeleteFunc(slices.Clone(runtimes), func(r float64) bool { return r >= runtimes[argmin] }))
	regret := runtimes[argmin]/runtimes[best] - 1
	t.Logf("%d layouts at C2 = %d; tuned %v; model argmin %v simulates %.4g s, rank %d of %d; best %v simulates %.4g s; regret %.3f%%",
		len(layouts), c2, tuned.Choice, layouts[argmin], runtimes[argmin], rank, len(layouts), layouts[best], runtimes[best], 100*regret)
	if regret > maxRegret {
		t.Errorf("the model argmin %v simulates %.3f%% slower than the best layout %v, over %.1f%%", layouts[argmin], 100*regret, layouts[best], 100*maxRegret)
	}
}
