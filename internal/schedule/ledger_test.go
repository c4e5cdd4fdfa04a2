package schedule

import (
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/grid"
	"senkf/internal/plan"
)

// The ledger is sized from the plan, once: one slice per rank and the table
// of them, whatever L is, and no phase a rank records — not a dead row's
// reads adopted under a fault plan, not P-EnKF's read per member — makes a
// slice grow.
func TestLedgerIsSizedFromThePlan(t *testing.T) {
	cfg := smallConfig()
	senkf := func(l int) func(grid.Decomposition) plan.Spec {
		return func(d grid.Decomposition) plan.Spec { return plan.SEnKF(d, cfg.P.N, l, 4) }
	}
	for name, c := range map[string]struct {
		spec func(grid.Decomposition) plan.Spec
		rc   *recovery
	}{
		"senkf/L2":     {spec: senkf(2)},
		"senkf/L12":    {spec: senkf(12)},
		"senkf/deaths": {spec: senkf(3), rc: &recovery{pl: &goldenStageDeaths}},
		"penkf":        {spec: func(d grid.Decomposition) plan.Spec { return plan.PEnKF(d, cfg.P.N) }},
		"lenkf":        {spec: func(d grid.Decomposition) plan.Spec { return plan.LEnKF(d, cfg.P.N) }},
	} {
		m, err := run(cfg, 4, 3, c.spec, c.rc, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(10, func() { newLedger(m.cp) }); n != float64(1+m.cp.WorldSize()) {
			t.Errorf("%s: newLedger allocates %v objects for %d ranks", name, n, m.cp.WorldSize())
		}
		recorded := 0
		for r, fresh := range newLedger(m.cp) {
			led := m.ledger[r]
			if cap(led.ivs) != cap(fresh.ivs) {
				t.Errorf("%s: %s recorded %d intervals into room for %d", name, led.name, len(led.ivs), cap(fresh.ivs))
			}
			recorded += len(led.ivs)
		}
		if recorded == 0 {
			t.Errorf("%s: nothing recorded", name)
		}
	}
}

// A simulation's object count does not follow L. Ten more stages on the same
// 12 + 12 ranks: anything allocated per recorded interval, or per stage and
// rank, would add at least 240 objects. plan.Compile accounts for its own
// share; what is left is the event loop's — each compute rank's mailbox queue
// doubling as more stage notifications wait in it, logarithmic in L.
func TestSimulationObjectsDoNotFollowL(t *testing.T) {
	cfg := smallConfig()
	mesh, err := grid.NewMesh(cfg.P.NX, cfg.P.NY)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(mesh, 4, 3, grid.Radius{Xi: cfg.P.Xi, Eta: cfg.P.Eta})
	if err != nil {
		t.Fatal(err)
	}
	objects := func(l int) (simulate, compile float64) {
		simulate = testing.AllocsPerRun(5, func() {
			if _, err := SimulateSEnKF(cfg, costmodel.Choice{NSdx: 4, NSdy: 3, L: l, NCg: 4}); err != nil {
				t.Fatal(err)
			}
		})
		compile = testing.AllocsPerRun(5, func() {
			if _, err := plan.Compile(plan.SEnKF(dec, cfg.P.N, l, 4)); err != nil {
				t.Fatal(err)
			}
		})
		return simulate, compile
	}
	sim2, compile2 := objects(2)
	sim12, compile12 := objects(12)
	if extra := (sim12 - compile12) - (sim2 - compile2); extra > 6*float64(dec.SubDomains()) {
		t.Errorf("L=12 costs %v objects more than L=2 beyond plan.Compile (%v → %v); the mailboxes account for at most %d",
			extra, sim2, sim12, 6*dec.SubDomains())
	}
}
