package schedule

import (
	"math"
	"runtime"
	"slices"
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
// share and leaves nothing: each compute rank's mailbox is sized from the
// plan before the run, so it does not double as notifications wait in it.
func TestSimulationObjectsDoNotFollowL(t *testing.T) {
	// The process's first collection starts the mark workers, whose
	// goroutines are counted mallocs: run it before counting exactly.
	runtime.GC()
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
	// Under the race detector the counts wander by a dozen objects; a
	// mailbox doubling per stage would still show.
	if extra := (sim12 - compile12) - (sim2 - compile2); extra != 0 && !(raceEnabled && math.Abs(extra) <= 2*float64(dec.SubDomains())) {
		t.Errorf("L=12 costs %v objects more than L=2 beyond plan.Compile (%v → %v)", extra, sim2, sim12)
	}
}

// P-EnKF's object count does not follow N beyond plan.Compile's share: a
// rank block-reads its members as one chain whose state comes from the file
// system's slab, so eight times the reads allocate nothing more.
func TestPEnKFReadsDoNotAllocate(t *testing.T) {
	runtime.GC() // as above
	mesh, err := grid.NewMesh(smallConfig().P.NX, smallConfig().P.NY)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(mesh, 4, 3, grid.Radius{Xi: smallConfig().P.Xi, Eta: smallConfig().P.Eta})
	if err != nil {
		t.Fatal(err)
	}
	beyondCompile := func(n int) float64 {
		cfg := smallConfig()
		cfg.P.N = n
		simulate := testing.AllocsPerRun(5, func() {
			if _, err := SimulatePEnKF(cfg, 4, 3); err != nil {
				t.Fatal(err)
			}
		})
		compile := testing.AllocsPerRun(5, func() {
			if _, err := plan.Compile(plan.PEnKF(dec, n)); err != nil {
				t.Fatal(err)
			}
		})
		return simulate - compile
	}
	few, many := beyondCompile(8), beyondCompile(64)
	if perRead := (many - few) / (12 * 56); few != many && !(raceEnabled && math.Abs(perRead) < 0.05) {
		t.Errorf("P-EnKF allocates %v objects beyond plan.Compile at N=8, %v at N=64: %.2f per extra read", few, many, perRead)
	}
}

// notes counts each stage notification a compute rank receives: the
// distinct (sender, stage) pairs among its stage-data messages. A healthy
// run's notification carries at least one member, so none goes uncounted.
type notes struct {
	cp   *plan.Compiled
	seen map[[3]int]bool
	got  []int
}

func (n *notes) BeginMessages(cp *plan.Compiled) {
	n.cp, n.seen, n.got = cp, map[[3]int]bool{}, make([]int, cp.NumCompute())
}

func (n *notes) OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int) {
	stage, _, _, _ := n.cp.Spec.InvertTag(tag)
	if k := [3]int{src, dst, stage}; !n.seen[k] {
		n.seen[k] = true
		n.got[dst]++
	}
}

// A healthy S-EnKF run never regrows a mailbox: every compute rank is sent
// exactly the notifications its mailbox was sized for from the plan, and a
// mailbox never holds more than it was sent.
func TestMailboxesNeverRegrow(t *testing.T) {
	for _, c := range []struct {
		ch     costmodel.Choice
		levels int
	}{
		{costmodel.Choice{NSdx: 4, NSdy: 3, L: 3, NCg: 4}, 0},
		{costmodel.Choice{NSdx: 6, NSdy: 5, L: 2, NCg: 2}, 0},
		{costmodel.Choice{NSdx: 4, NSdy: 3, L: 12, NCg: 1}, 3},
	} {
		cfg, n := smallConfig(), &notes{}
		cfg.P.Levels, cfg.Msgs = c.levels, n
		if _, err := SimulateSEnKF(cfg, c.ch); err != nil {
			t.Fatalf("%+v: %v", c.ch, err)
		}
		sized := make([]int, n.cp.NumCompute())
		for q := range n.cp.IO {
			for _, st := range n.cp.IO[q].Stages {
				for _, dst := range st.Comm.Dsts {
					sized[dst]++
				}
			}
		}
		if !slices.Equal(n.got, sized) {
			t.Errorf("%+v: compute ranks received %v notifications, their mailboxes were sized for %v", c.ch, n.got, sized)
		}
	}
}
