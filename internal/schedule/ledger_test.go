package schedule

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/plan"
)

// The ledger is sized from the plan, once: the table of ranks, one slab of
// lengths and one of spans, whatever the rank count or L, and no phase a rank
// records — not a dead row's reads adopted under a fault plan, not P-EnKF's
// read per member — makes a per-phase or span slice grow.
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
		if n := testing.AllocsPerRun(10, func() { newLedger(m.cp) }); n != 3 {
			t.Errorf("%s: newLedger allocates %v objects for %d ranks, want 3", name, n, m.cp.WorldSize())
		}
		recorded := 0
		fresh := newLedger(m.cp)
		for r, want := range fresh.ranks {
			led := &m.ledger.ranks[r]
			for ph := range led.d {
				if got := led.d[ph]; got.at != want.d[ph].at || got.max != want.d[ph].max || got.n > got.max {
					t.Errorf("%s: %s recorded %d %v intervals into room for %d", name, m.name(r), got.n, metrics.Phase(ph), want.d[ph].max)
				}
				recorded += int(led.d[ph].n)
			}
			if got := led.spans; got.at != want.spans.at || got.max != want.spans.max || got.n > got.max {
				t.Errorf("%s: %s recorded %d spans into room for %d", name, m.name(r), got.n, want.spans.max)
			}
		}
		if len(m.ledger.lens) != len(fresh.lens) || len(m.ledger.spans) != len(fresh.spans) {
			t.Errorf("%s: the slabs grew from %d lengths and %d spans to %d and %d", name, len(fresh.lens), len(fresh.spans), len(m.ledger.lens), len(m.ledger.spans))
		}
		if recorded == 0 {
			t.Errorf("%s: nothing recorded", name)
		}
	}
}

// P-EnKF's ledger costs 8 bytes per self-read — its length, and no start, end
// or phase — plus a constant per rank: the rank's table entry, its analysis's
// length and span, and what the allocator's size classes round up.
func TestPEnKFLedgerBytes(t *testing.T) {
	const perRank = 256
	cfg := smallConfig()
	cfg.P.N = 64
	mesh, err := grid.NewMesh(cfg.P.NX, cfg.P.NY)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.NewDecomposition(mesh, 4, 3, grid.Radius{Xi: cfg.P.Xi, Eta: cfg.P.Eta})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plan.Compile(plan.PEnKF(dec, cfg.P.N))
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, cr := range cp.Compute {
		for _, st := range cr.Stages {
			if st.Expect == 0 {
				reads += len(cr.Self.Members)
			}
		}
	}
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			newLedger(cp)
		}
	}).AllocedBytesPerOp()
	if bound := int64(8*reads + perRank*cp.WorldSize()); got > bound {
		t.Errorf("P-EnKF ledger of %d ranks and %d self-reads allocates %d bytes, over %d", cp.WorldSize(), reads, got, bound)
	}
}

// interval is one phase interval as a rank records it.
type interval struct {
	ph     metrics.Phase
	t0, t1 float64
}

// foldOracle is the fold the ledger used to make over its intervals: ranks
// that recorded an interval of some length, sorted by proc name, one
// Breakdown.Add per such interval as recorded, divided once by their number.
func foldOracle(names []string, ivs [][]interval) metrics.Breakdown {
	var ranks []int
	for r, rs := range ivs {
		if slices.ContainsFunc(rs, func(iv interval) bool { return iv.t1 > iv.t0 }) {
			ranks = append(ranks, r)
		}
	}
	slices.SortFunc(ranks, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	var b metrics.Breakdown
	for _, r := range ranks {
		for _, iv := range ivs[r] {
			if iv.t1 > iv.t0 {
				b.Add(iv.ph, iv.t1-iv.t0)
			}
		}
	}
	return b.Mean(len(ranks))
}

// spansOracle is the union the ledger used to make: the intervals of some
// length that ranks [lo, hi) recorded in the given phases.
func spansOracle(ivs [][]interval, lo, hi int, phases ...metrics.Phase) []metrics.Span {
	var raw []metrics.Span
	for _, rs := range ivs[lo:hi] {
		for _, iv := range rs {
			if iv.t1 > iv.t0 && slices.Contains(phases, iv.ph) {
				raw = append(raw, metrics.Span{Start: iv.t0, End: iv.t1})
			}
		}
	}
	return metrics.UnionSpans(raw)
}

// The ledger's per-phase fold is the interleaved fold, bit for bit, and its
// spans are the phase-filtered union, over generated ledgers: phases
// interleaved within a rank, intervals of no or negative length, ranks that
// record nothing, and proc names whose order is not the ranks' order
// (comp/x10y0 sorts before comp/x2y0, io/g10/r0 before io/g2/r0).
func TestLedgerFoldEqualsInterleavedFold(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	for trial := range 300 {
		nsdx, nsdy, ncg := 1+rng.IntN(13), 1+rng.IntN(3), 1+rng.IntN(12)
		nc, world := nsdx*nsdy, nsdx*nsdy+ncg*nsdy
		names := make([]string, world)
		ivs := make([][]interval, world)
		m := &machine{
			cp:     &plan.Compiled{Compute: make([]plan.ComputeRank, nc), IO: make([]plan.IORank, world-nc)},
			ledger: ledger{ranks: make([]rankLedger, world)},
		}
		for r := range world {
			// The phases each kind of rank records: an I/O rank reads and
			// sends; a compute rank waits or reads, and analyses.
			kinds := []metrics.Phase{metrics.PhaseRead, metrics.PhaseWait, metrics.PhaseCompute}
			if r < nc {
				names[r] = metrics.ComputeName(r%nsdx, r/nsdx)
				m.cp.Compute[r].Name = names[r]
			} else {
				q := r - nc
				names[r] = metrics.IOName(q/nsdy, q%nsdy)
				m.cp.IO[q].Name = names[r]
				kinds = []metrics.Phase{metrics.PhaseRead, metrics.PhaseComm}
			}
			n := rng.IntN(9)
			if rng.IntN(4) == 0 {
				n = 0
			}
			for range n {
				t0 := rng.Float64() * 100
				iv := interval{ph: kinds[rng.IntN(len(kinds))], t0: t0, t1: t0 + rng.Float64()*10}
				switch rng.IntN(6) {
				case 0:
					iv.t1 = iv.t0
				case 1:
					iv.t1 = iv.t0 - rng.Float64()
				}
				ivs[r] = append(ivs[r], iv)
			}
			// Room for every interval, in each phase and as spans.
			led := &m.ledger.ranks[r]
			for ph := range led.d {
				led.d[ph] = part{at: int32(len(m.ledger.lens)), max: int32(n)}
				m.ledger.lens = append(m.ledger.lens, make([]float64, n)...)
			}
			led.spans = part{at: int32(len(m.ledger.spans)), max: int32(n)}
			m.ledger.spans = append(m.ledger.spans, make([]metrics.Span, n)...)
		}
		// Record the ranks' intervals interleaved, each rank's in its order.
		var order []int
		for r := range world {
			for range ivs[r] {
				order = append(order, r)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		next := make([]int, world)
		for _, r := range order {
			iv := ivs[r][next[r]]
			m.obs(r, iv.ph, iv.t0, iv.t1, -1)
			next[r]++
		}
		if got, want := m.mean(0, nc), foldOracle(names[:nc], ivs[:nc]); got != want {
			t.Fatalf("trial %d: compute mean %+v, interleaved fold %+v", trial, got, want)
		}
		if got, want := m.mean(nc, world), foldOracle(names[nc:], ivs[nc:]); got != want {
			t.Fatalf("trial %d: I/O mean %+v, interleaved fold %+v", trial, got, want)
		}
		if got, want := m.spans(0, nc), spansOracle(ivs, 0, nc, metrics.PhaseCompute); !slices.Equal(got, want) {
			t.Fatalf("trial %d: compute spans %v, phase-filtered union %v", trial, got, want)
		}
		if got, want := m.spans(nc, world), spansOracle(ivs, nc, world, metrics.PhaseRead, metrics.PhaseComm); !slices.Equal(got, want) {
			t.Fatalf("trial %d: I/O spans %v, phase-filtered union %v", trial, got, want)
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
