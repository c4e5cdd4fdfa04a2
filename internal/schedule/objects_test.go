package schedule

import (
	"runtime"
	"testing"

	"senkf/internal/costmodel"
)

// TestSimulationObjectsPerRank holds a paper-machine simulation, plan.Compile
// included, to a fixed number of objects plus one per eight world ranks, at
// the benchmark's tuning constraints. The fixed part is the run's slabs —
// ranks, names, stages, ledger, bodies, processes, mailboxes, event queue —
// and the file system's targets; what grows with the machine is an I/O rank's
// stage list and name, a group's barrier, the file system's reader slab (a
// block per 64 readers in flight) and the doubling of the targets' queues. A
// compute rank allocates nothing of its own: a Proc, a mailbox, a name or a
// stage list per rank (at least one object each) fails the bound at np = 500.
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
			fixed float64
			run   func() (Result, error)
		}{
			{"S-EnKF", 100, func() (Result, error) { return SimulateSEnKF(cfg, tuned.Choice) }},
			{"P-EnKF", 55, func() (Result, error) { return SimulatePEnKF(cfg, nsdx, nsdy) }},
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
			bound := c.fixed + float64(res.NP)/8
			t.Logf("np=%d %s: %.0f objects over %d ranks, bound %.1f", np, c.name, objects, res.NP, bound)
			if objects > bound {
				t.Errorf("np=%d %s: %.0f objects over %d ranks, want at most %g + %d/8", np, c.name, objects, res.NP, c.fixed, res.NP)
			}
		}
	}
}

// TestSEnKFSimulationBytes holds the benchmark's np = 500 S-EnKF simulation,
// plan.Compile included, to 160 bytes per compute stage plus 768 per world
// rank. A compute stage costs its plan entry (80 B: stage, expected blocks,
// two boxes), its analysis's and wait's lengths and its analysis span (32 B),
// its block count (8 B) and a mailbox slot per I/O group that notifies it
// (8 B each, three groups here). A rank costs its plan entry and name, its
// body, process, event-queue room, ledger part and mailbox — about 540 B for
// a compute rank — and a share of the I/O ranks' stage lists, the file
// system's readers and the fixed rest. A P-EnKF self-read template in every
// stage (88 B) or a notification boxed as an interface (8 B more a slot)
// fails it.
func TestSEnKFSimulationBytes(t *testing.T) {
	const perStage, perRank = 160, 768
	cfg := DefaultConfig()
	tuned, ok := cfg.P.AutoTuneConstrained(500, 0.001, costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12})
	if !ok {
		t.Fatal("np=500: no configuration")
	}
	ch := tuned.Choice
	res, err := SimulateSEnKF(cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := SimulateSEnKF(cfg, ch); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	stages := ch.NSdx * ch.NSdy * ch.L
	bound := int64(perStage*stages + perRank*res.NP)
	t.Logf("%+v: %d bytes for %d compute stages and %d ranks, bound %d", ch, got, stages, res.NP, bound)
	if got > bound {
		t.Errorf("%+v: the simulation allocates %d bytes, over %d B × %d compute stages + %d B × %d ranks = %d", ch, got, perStage, stages, perRank, res.NP, bound)
	}
}
