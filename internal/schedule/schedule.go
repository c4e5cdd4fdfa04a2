// Package schedule is the simulated substrate: it interprets compiled
// execution plans (internal/plan) on the discrete-event machine (internal/sim
// + internal/parfs) at the paper's scale — thousands of simulated processors
// over the 0.1° problem geometry — to regenerate the evaluation figures. The
// *numerical* assimilation is not performed here (that is internal/core's
// job); what is simulated is the exact event structure a compiled plan
// prescribes: who reads what with how many disk-addressing operations, who
// waits for whom, and what overlaps with what.
//
// There is one interpreter, simulate, the mirror of core's execute: it builds
// the machine, spawns one process per plan rank and steps two bodies,
// ioBody and computeBody. What tells P-EnKF (§2.3: every processor
// block-reads its expansion, no overlap), L-EnKF (§3.1: one reader, one
// round per member) and S-EnKF (§4: n_cg groups of n_sdy bar readers feeding
// L overlapped stages, Figure 8) apart is read from the plan; fault handling
// is the policy of recovery.go. Both substrates interpreting one
// plan.Compiled, a simulated schedule has the structure of a traced real run
// (plan.ExpectedDAG).
package schedule

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"senkf/internal/costmodel"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/parfs"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/sim"
	"senkf/internal/trace"
)

// Config couples the problem/cost parameters with the file system model.
type Config struct {
	P  costmodel.Params
	FS parfs.Config

	// Tracer receives the virtual-clocked event stream of every simulated
	// run (phase spans per processor, OST service spans, stage readiness
	// instants). Nil disables tracing at zero cost.
	Tracer *trace.Tracer

	// Faults injects a deterministic fault plan: OST outage/degradation
	// windows and straggler processors affect every schedule; member-file
	// faults and I/O-rank deaths additionally give SimulateSEnKF a recovery
	// policy. Nil (the default) simulates a healthy machine.
	Faults *faults.Plan

	// Obs, when non-nil, observes each simulated run: BeginRun with the
	// compiled plan before any event executes, EndRun with the outcome —
	// the hook a live monitor (internal/monitor) attaches through,
	// alongside a Tracer teeing events to it.
	Obs plan.RunObserver

	// Prof, when non-nil, runs every simulated process under its pprof
	// proc labels (via sim.Env.SetSpawnWrapper), so profiling the simulator
	// itself attributes CPU to the proc names the trace uses.
	Prof *runtimeobs.LabelSet

	// Msgs, when non-nil, receives the simulated substrate's mirror of the
	// real engine's per-message accounting: BeginMessages with the compiled
	// plan, then one OnMessage per (member, level, destination) stage-data
	// send, byte-sized by plan.StageMsgBytes — the real transport's formula,
	// not the cost model's nominal volume — so the simulated edge matrix is
	// bit-identical to the real one. Delivery is at the virtual send instant:
	// the simulator sends one notification per stage, only the matrix is
	// mirrored.
	Msgs plan.MsgObserver

	// Reads, when non-nil, receives per-read OST attribution from the
	// simulated file system (see parfs.ReadObserver). The wire collector
	// (internal/wire) implements both Msgs and Reads.
	Reads parfs.ReadObserver
}

// emitModelPrediction publishes the Eq. 7–10 predictions for the choice
// about to be simulated: counter samples (model/t_read, model/t_comm,
// model/t_comp) on the model track so drift against measured phases is
// visible directly in a Chrome trace, gauges in the counter registry, and
// one "prediction" instant carrying the full Table-1 parameters and the
// choice — everything senkf-report needs to recompute drift from the
// trace file alone.
func emitModelPrediction(tr *trace.Tracer, p costmodel.Params, ch costmodel.Choice) {
	tRead, tComm, tComp := p.TRead(ch), p.TComm(ch), p.TComp(ch)
	if reg := tr.Counters(); reg != nil {
		reg.SetGauge("model/t_read", tRead)
		reg.SetGauge("model/t_comm", tComm)
		reg.SetGauge("model/t_comp", tComp)
		reg.SetGauge("model/t_total", p.TTotal(ch))
	}
	if !tr.Enabled() {
		return
	}
	tr.Counter(trace.ModelTrack, "model/t_read", 0, tRead)
	tr.Counter(trace.ModelTrack, "model/t_comm", 0, tComm)
	tr.Counter(trace.ModelTrack, "model/t_comp", 0, tComp)
	tr.Instant(trace.ModelTrack, trace.CatModel, "prediction", 0,
		trace.Arg{Key: "nsdx", Val: float64(ch.NSdx)},
		trace.Arg{Key: "nsdy", Val: float64(ch.NSdy)},
		trace.Arg{Key: "l", Val: float64(ch.L)},
		trace.Arg{Key: "ncg", Val: float64(ch.NCg)},
		trace.Arg{Key: "t_read", Val: tRead},
		trace.Arg{Key: "t_comm", Val: tComm},
		trace.Arg{Key: "t_comp", Val: tComp},
		trace.Arg{Key: "t_total", Val: p.TTotal(ch)},
		trace.Arg{Key: "n", Val: float64(p.N)},
		trace.Arg{Key: "nx", Val: float64(p.NX)},
		trace.Arg{Key: "ny", Val: float64(p.NY)},
		trace.Arg{Key: "a", Val: p.A},
		trace.Arg{Key: "b", Val: p.B},
		trace.Arg{Key: "c", Val: p.C},
		trace.Arg{Key: "theta", Val: p.Theta},
		trace.Arg{Key: "xi", Val: float64(p.Xi)},
		trace.Arg{Key: "eta", Val: float64(p.Eta)},
		trace.Arg{Key: "h", Val: float64(p.H)},
		trace.Arg{Key: "levels", Val: float64(p.LevelCount())})
}

// Validate checks both halves and their consistency.
func (c Config) Validate() error {
	if err := c.P.Validate(); err != nil {
		return err
	}
	if err := c.FS.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultConfig is the paper-scale machine: the 0.1° problem of §5.1
// (3600×1800 grid, 30 levels ⇒ h = 240 B, N = 120 members) on a parallel
// file system with 8 OSTs and a 6-stream backbone, 5 GB/s network links
// with 2 µs startup, and a per-point local-analysis cost calibrated so the
// computation-to-I/O balance matches Figure 1's trajectory.
func DefaultConfig() Config {
	return Config{
		P: costmodel.Params{
			N: 120, NX: 3600, NY: 1800,
			A: 2e-6, B: 2e-10, C: 0.12,
			Theta: 0.5e-9, Xi: 16, Eta: 8, H: 240,
		},
		FS: parfs.DefaultConfig,
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	Algorithm string
	NP        int     // total processors used
	Runtime   float64 // virtual seconds

	// IO is the mean phase breakdown of the I/O processors (S-EnKF and the
	// L-EnKF reader); zero for P-EnKF, which has no dedicated I/O ranks.
	IO metrics.Breakdown
	// Compute is the mean phase breakdown of the compute processors. For
	// P-EnKF it contains both the read and the compute share, as in Fig. 9.
	Compute metrics.Breakdown

	// OverlapFraction is the share of I/O activity (file reading and
	// communication) that proceeded concurrently with local analysis — how
	// well data obtaining is hidden (Figure 11). Zero for the baselines.
	OverlapFraction float64
	// OverlapRuntimeFraction is the overlapped time as a share of total
	// runtime.
	OverlapRuntimeFraction float64
	// FirstStage is the non-overlappable initial acquisition time of
	// S-EnKF (the "<8%" of §5.4).
	FirstStage float64

	FSStats parfs.Stats

	// Fault outcomes (S-EnKF only; empty/zero without a fault plan):
	// DroppedMembers lists members whose files were unrecoverable and were
	// excluded from assimilation; Failovers counts bar rows adopted by a
	// surviving reader after a rank death; RankDeaths counts I/O ranks that
	// died during the run.
	DroppedMembers []int
	Failovers      int
	RankDeaths     int
}

// IOPercent returns the share of I/O (read) time in read+compute across
// compute processors — the quantity of Figure 1.
func (r Result) IOPercent() float64 {
	t := r.Compute.Read + r.Compute.Compute
	if t == 0 {
		return 0
	}
	return 100 * r.Compute.Read / t
}

// ChooseDecomposition picks (n_sdx, n_sdy) with n_sdx·n_sdy = np dividing
// the mesh while minimizing the expansion (halo) area — the natural choice
// an implementer makes for P-EnKF at a given processor count.
func ChooseDecomposition(p costmodel.Params, np int) (nsdx, nsdy int, err error) {
	best := math.Inf(1)
	found := false
	for j := 1; j <= np; j++ {
		if np%j != 0 || p.NY%j != 0 {
			continue
		}
		i := np / j
		if p.NX%i != 0 {
			continue
		}
		expArea := (float64(p.NX)/float64(i) + 2*float64(p.Xi)) * (float64(p.NY)/float64(j) + 2*float64(p.Eta))
		if expArea < best {
			best = expArea
			nsdx, nsdy = i, j
			found = true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("schedule: no decomposition of %dx%d into %d sub-domains", p.NX, p.NY, np)
	}
	return nsdx, nsdy, nil
}

// nominalBytes converts a plan's nominal point count to bytes at h bytes
// per grid point. All factors are exact small integers, so the product is
// exact in float64 regardless of association. Callers fold the level
// dimension into the point count (ReadTemplate.PointsAllLevels, or an
// explicit × LevelCount on communication volumes) so the plan's Levels and
// the cost model's H stay separate factors.
func nominalBytes(points, h int) float64 {
	return float64(points) * float64(h)
}

// run compiles spec over the nsdx × nsdy decomposition and simulates it. The
// cost model's (ξ, η) become the decomposition radius, so the plan's nominal
// addressing-op and point counts are exactly the quantities of Eqs. 2 and 5.
func run(cfg Config, nsdx, nsdy int, spec func(grid.Decomposition) plan.Spec, rc *recovery, predict *costmodel.Choice) (*machine, error) {
	mesh, err := grid.NewMesh(cfg.P.NX, cfg.P.NY)
	if err != nil {
		return nil, err
	}
	dec, err := grid.NewDecomposition(mesh, nsdx, nsdy, grid.Radius{Xi: cfg.P.Xi, Eta: cfg.P.Eta})
	if err != nil {
		return nil, err
	}
	cp, err := plan.Compile(spec(dec).WithLevels(cfg.P.LevelCount()))
	if err != nil {
		return nil, err
	}
	return simulate(cfg, cp, rc, predict)
}

// simulateBaseline validates and simulates a baseline on nsdx × nsdy
// processors; without a recovery policy, so deaths and file faults are ignored.
func simulateBaseline(cfg Config, nsdx, nsdy int, algorithm string, spec func(grid.Decomposition, int) plan.Spec) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.P.NX%nsdx != 0 || cfg.P.NY%nsdy != 0 {
		return Result{}, fmt.Errorf("schedule: %dx%d does not divide the %dx%d mesh", nsdx, nsdy, cfg.P.NX, cfg.P.NY)
	}
	if err := cfg.Faults.Validate(0, 0, 0, cfg.P.N, cfg.FS.OSTs); err != nil {
		return Result{}, err
	}
	// L-EnKF stays single-level by design: compiling with the config's level
	// count makes the spec validator reject a multilevel request loudly.
	m, err := run(cfg, nsdx, nsdy, func(d grid.Decomposition) plan.Spec { return spec(d, cfg.P.N) }, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return m.result(algorithm), nil
}

// SimulatePEnKF replays the compiled block-reading plan on nsdx × nsdy
// processors.
func SimulatePEnKF(cfg Config, nsdx, nsdy int) (Result, error) {
	return simulateBaseline(cfg, nsdx, nsdy, "P-EnKF", plan.PEnKF)
}

// SimulateLEnKF replays the compiled single-reader plan: one reader
// processor reads every member file in full and serially distributes
// expansion blocks to nsdx × nsdy compute processors.
func SimulateLEnKF(cfg Config, nsdx, nsdy int) (Result, error) {
	return simulateBaseline(cfg, nsdx, nsdy, "L-EnKF", plan.LEnKF)
}

// SimulateSEnKF replays the compiled multi-stage overlapped plan with the
// given parameter choice (n_sdx, n_sdy, L, n_cg).
func SimulateSEnKF(cfg Config, ch costmodel.Choice) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !cfg.P.Feasible(ch) {
		return Result{}, fmt.Errorf("schedule: choice %v infeasible for the problem", ch)
	}
	if err := cfg.Faults.Validate(ch.NCg, ch.NSdy, ch.L, cfg.P.N, cfg.FS.OSTs); err != nil {
		return Result{}, err
	}
	var rc *recovery
	if cfg.Faults != nil {
		rc = &recovery{pl: cfg.Faults, tr: cfg.Tracer}
	}
	m, err := run(cfg, ch.NSdx, ch.NSdy, func(d grid.Decomposition) plan.Spec { return plan.SEnKF(d, cfg.P.N, ch.L, ch.NCg) }, rc, &ch)
	if err != nil {
		return Result{}, err
	}
	res := m.result("S-EnKF")
	ioSpans := m.spans(m.cp.NumCompute(), m.cp.WorldSize()) // reads and comms
	cpSpans := m.spans(0, m.cp.NumCompute())                // analyses
	overlap := metrics.OverlapDuration(ioSpans, cpSpans)
	res.OverlapRuntimeFraction = overlap / m.end
	res.FirstStage = m.firstStage
	if ioBusy := metrics.SpanTotal(ioSpans); ioBusy > 0 {
		// Clamp: the hidden share of I/O cannot exceed 100%; resilient runs
		// with truncated spans from dead ranks must not report more.
		res.OverlapFraction = math.Min(1, overlap/ioBusy)
	}
	if rc != nil {
		res.DroppedMembers, res.Failovers, res.RankDeaths = rc.dropped, rc.failovers, rc.deaths
		slices.Sort(res.DroppedMembers)
	}
	return res, nil
}

// ReadOnlyBlock simulates just the block-reading phase (no compute) of
// P-EnKF over nFiles member files — the measurement behind Figure 5: the
// compiled P-EnKF plan, the same the full schedule interprets, on a machine
// where only reading costs time.
func ReadOnlyBlock(cfg Config, nsdx, nsdy, nFiles int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return readOnly(cfg, nsdx, nsdy, func(d grid.Decomposition) plan.Spec { return plan.PEnKF(d, nFiles) })
}

// ReadOnlyConcurrent simulates just the concurrent-access reading of
// nFiles member files with the bar approach in ncg groups of nsdy readers
// each — the measurement behind Figure 10. A single-stage S-EnKF plan
// (n_sdx = 1, L = 1) prescribes the geometry: each reader's bar is the
// full-width sub-domain expansion at one addressing operation per file,
// and the group's members are the files k ≡ g (mod n_cg).
func ReadOnlyConcurrent(cfg Config, nsdy, ncg, nFiles int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if nFiles%ncg != 0 {
		return 0, fmt.Errorf("schedule: %d files do not divide into %d groups", nFiles, ncg)
	}
	return readOnly(cfg, 1, nsdy, func(d grid.Decomposition) plan.Spec { return plan.SEnKF(d, nFiles, 1, ncg) })
}

// readOnly runs a plan for its reading time alone: on a private copy of the
// config with the communication and analysis coefficients zeroed — their
// sleeps add events, not virtual time — and no observer or fault plan.
func readOnly(cfg Config, nsdx, nsdy int, spec func(grid.Decomposition) plan.Spec) (float64, error) {
	ro := Config{P: cfg.P, FS: cfg.FS, Prof: cfg.Prof}
	ro.P.A, ro.P.B, ro.P.C = 0, 0, 0
	m, err := run(ro, nsdx, nsdy, spec, nil, nil)
	if err != nil {
		return 0, err
	}
	return m.end, nil
}

// machine is one simulated execution: what the process bodies share and what
// the run leaves behind. One goroutine runs at a time: plain fields are safe.
type machine struct {
	cfg Config
	cp  *plan.Compiled
	lv  int // the plan's level count
	rc  *recovery
	fs  *parfs.FS

	// ledger is the run's phase record, by world rank — the compute ranks,
	// then the I/O ranks: what Result's breakdowns and overlap shares are
	// folded from, tracer on or off.
	ledger ledger

	groups []group                    // per I/O group: keeps its readers on the same file (§4.1.3)
	boxes  []sim.Inbox[*plan.IOStage] // per compute rank, when the plan has I/O ranks to notify it

	end        float64 // final virtual time
	firstStage float64 // instant compute rank 0 starts analysing stage 0
}

// phases is the number of metrics.Phase values.
const phases = int(metrics.PhaseWait) + 1

// ledger is what the ranks recorded, kept for the two questions asked of it:
// mean reads each interval's length, per rank and phase in record order; the
// overlap reads start and end, of only the intervals it unions — an I/O
// rank's reads and comms, a compute rank's analyses. Each rank has a part of
// the one slab of lengths per phase and a part of the one slab of spans,
// sized for every phase its plan stages can record and written by its own
// process alone.
type ledger struct {
	ranks []rankLedger
	lens  []float64
	spans []metrics.Span
}

// lengths returns the lengths world rank r recorded in phase ph, in record
// order.
func (l *ledger) lengths(r int, ph metrics.Phase) []float64 {
	p := l.ranks[r].d[ph]
	return l.lens[p.at : p.at+p.n]
}

// rankLedger is one rank's parts of the ledger's slabs.
type rankLedger struct {
	d     [phases]part
	spans part
}

// part is a rank's room in one of the ledger's slabs: it starts at at, holds
// n records and has room for max.
type part struct{ at, n, max int32 }

// add takes the part's next slot.
func (p *part) add() int32 {
	if p.n == p.max {
		panic("schedule: a rank recorded more than its plan has room for")
	}
	p.n++
	return p.at + p.n - 1
}

// room is what world rank r of cp can record, per phase and as spans: a read
// and a comm per I/O stage, both spans; per compute stage its analysis, a
// span, and either one wait or a read per self-read member.
func room(cp *plan.Compiled, r int) (n [phases]int, spans int) {
	if q := r - cp.NumCompute(); q >= 0 {
		me := &cp.IO[q]
		n[metrics.PhaseRead], n[metrics.PhaseComm] = len(me.Stages), len(me.Stages)
		return n, 2 * len(me.Stages)
	}
	cr := &cp.Compute[r]
	for si := range cr.Stages {
		if st := &cr.Stages[si]; st.Expect > 0 {
			n[metrics.PhaseWait]++
		} else {
			n[metrics.PhaseRead] += len(cr.Self.Members)
		}
	}
	n[metrics.PhaseCompute] = len(cr.Stages)
	return n, len(cr.Stages)
}

// newLedger gives every rank of cp its room, its parts laid out in world rank
// order: three objects, whatever the plan.
func newLedger(cp *plan.Compiled) ledger {
	l := ledger{ranks: make([]rankLedger, cp.WorldSize())}
	nd, ns := int32(0), int32(0)
	for r := range l.ranks {
		n, spans := room(cp, r)
		led := &l.ranks[r]
		for ph, k := range n {
			led.d[ph] = part{at: nd, max: int32(k)}
			nd += int32(k)
		}
		led.spans = part{at: ns, max: int32(spans)}
		ns += int32(spans)
	}
	l.lens, l.spans = make([]float64, nd), make([]metrics.Span, ns)
	return l
}

// name returns world rank r's proc name.
func (m *machine) name(r int) string {
	if q := r - m.cp.NumCompute(); q >= 0 {
		return m.cp.IO[q].Name
	}
	return m.cp.Compute[r].Name
}

// mean folds world ranks [lo, hi) into their mean phase breakdown. The order
// of the additions is part of Result's bits: ranks by proc name, a rank's
// intervals as recorded, one running sum per phase, divided once by the
// number of ranks that recorded anything. Breakdown.Add keeps each phase's
// sum apart from the others, so folding a rank phase by phase adds the same
// numbers to each sum in the same order as folding its intervals as they
// interleaved.
func (m *machine) mean(lo, hi int) metrics.Breakdown {
	ranks := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		if slices.ContainsFunc(m.ledger.ranks[r].d[:], func(p part) bool { return p.n > 0 }) {
			ranks = append(ranks, r)
		}
	}
	slices.SortFunc(ranks, func(a, b int) int { return strings.Compare(m.name(a), m.name(b)) })
	var b metrics.Breakdown
	for _, r := range ranks {
		for ph := range phases {
			for _, d := range m.ledger.lengths(r, metrics.Phase(ph)) {
				b.Add(metrics.Phase(ph), d)
			}
		}
	}
	return b.Mean(len(ranks))
}

// spans merges the intervals world ranks [lo, hi) kept as spans, in place:
// it moves them together to the start of the ranks' room and unions them
// there, so it is asked once per range.
func (m *machine) spans(lo, hi int) []metrics.Span {
	if lo == hi {
		return nil
	}
	sp := m.ledger.spans
	at := m.ledger.ranks[lo].spans.at
	n := at
	for r := lo; r < hi; r++ {
		p := m.ledger.ranks[r].spans
		n += int32(copy(sp[n:], sp[p.at:p.at+p.n]))
	}
	return metrics.UnionInPlace(sp[at:n])
}

// result fills the fields every algorithm reports the same way. P-EnKF has
// no I/O ranks: its IO breakdown is zero and its world the compute ranks.
func (m *machine) result(algorithm string) Result {
	return Result{
		Algorithm: algorithm,
		NP:        m.cp.WorldSize(),
		Runtime:   m.end,
		IO:        m.mean(m.cp.NumCompute(), m.cp.WorldSize()),
		Compute:   m.mean(0, m.cp.NumCompute()),
		FSStats:   m.fs.Stats(),
	}
}

// simulate interprets any compiled plan on the discrete-event machine: the
// one walk behind every entry point, as execute is in core. rc is the recovery
// policy (nil: none), predict the choice whose Eq. 7–10 prediction to trace.
func simulate(cfg Config, cp *plan.Compiled, rc *recovery, predict *costmodel.Choice) (*machine, error) {
	env, tr := sim.NewEnv(), cfg.Tracer
	env.SetTracer(tr)
	if cfg.Prof != nil {
		// Every spawned process body runs under its pprof proc labels.
		env.SetSpawnWrapper(cfg.Prof.SpawnWrapper())
	}
	fs, err := parfs.New(env, cfg.FS)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		// Straggler dilation and file-system windows act on every plan.
		env.SetSlowdown(cfg.Faults.SlowdownFor)
		fs.SetFaults(cfg.Faults)
	}
	if cfg.Msgs != nil {
		cfg.Msgs.BeginMessages(cp)
	}
	fs.SetReadObserver(cfg.Reads)
	m := &machine{cfg: cfg, cp: cp, lv: cp.Spec.LevelCount(), rc: rc, fs: fs, ledger: newLedger(cp)}
	if cfg.Obs != nil {
		cfg.Obs.BeginRun(cp)
	}
	if predict != nil {
		emitModelPrediction(tr, cfg.P, *predict)
	}
	plan.AnnounceStragglers(tr, cfg.Faults)

	if n := len(cp.IO); n > 0 {
		// One file barrier per I/O group — group-major and equally sized in
		// the plan: n_sdy bar readers, or the single reader, whom a barrier of
		// one never parks — and one mailbox per compute rank they notify. On
		// a staged plan, later stages' blocks wait in it during analysis, so
		// it is sized once for every notification the plan sends it (a row
		// adopted under faults sends what its dead reader would have); L-EnKF's
		// ranks wait for each block, and their mailboxes stay empty.
		m.groups = make([]group, cp.IO[n-1].Group+1)
		for g := range m.groups {
			m.groups[g] = group{rc: rc, bar: sim.NewBarrier(env, fmt.Sprintf("grp%d", g), n/len(m.groups))}
		}
		depth := make([]int, cp.NumCompute())
		for q := 0; cp.Staged() && q < len(cp.IO); q++ {
			for si := range cp.IO[q].Stages {
				for _, dst := range cp.IO[q].Stages[si].Comm.Dsts {
					depth[dst]++
				}
			}
		}
		m.boxes = sim.NewInboxes[*plan.IOStage](env, depth)
		metrics.NameAll(len(m.boxes), func(b []byte, r int) []byte {
			cr := &cp.Compute[r]
			b = strconv.AppendInt(append(b, "mb"...), int64(cr.J), 10)
			return strconv.AppendInt(append(b, '.'), int64(cr.I), 10)
		}, func(r int, name string) { m.boxes[r].Name = name })
	}
	// The bodies are cut from one slab per kind, their processes and the
	// event queue's room from the reservation, and the compute ranks' block
	// counts from one more slab.
	env.Reserve(cp.WorldSize())
	ios := make([]ioBody, len(cp.IO))
	for q := range cp.IO {
		ios[q] = ioBody{m: m, me: &cp.IO[q]}
		env.Spawn(cp.IO[q].Name, &ios[q])
	}
	n := 0
	for q := range cp.Compute {
		if waits(&cp.Compute[q]) {
			n += len(cp.Compute[q].Stages)
		}
	}
	arrived, crs := make([]int, n), make([]computeBody, len(cp.Compute))
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		crs[q] = computeBody{m: m, cr: cr}
		if waits(cr) {
			crs[q].arrived, arrived = arrived[:len(cr.Stages):len(cr.Stages)], arrived[len(cr.Stages):]
		}
		env.Spawn(cr.Name, &crs[q])
	}
	m.end, err = env.Run()
	if cfg.Obs != nil {
		err = cfg.Obs.EndRun(err) // a monitor may add blamed plan edges and a dump
	}
	return m, err
}

// obs records one phase interval of world rank r: in the ledger and — when
// tracing — as a span on the rank's own track, stage-tagged, as in core, on a
// staged plan. An interval of no length is a trace span but not a ledger
// entry. The ledger keeps its length, and its ends where the overlap reads
// them: on an I/O rank, and for an analysis.
func (m *machine) obs(r int, ph metrics.Phase, t0, t1 float64, stage int) {
	if t1 > t0 {
		led := &m.ledger.ranks[r]
		m.ledger.lens[led.d[ph].add()] = t1 - t0
		if r >= m.cp.NumCompute() || ph == metrics.PhaseCompute {
			m.ledger.spans[led.spans.add()] = metrics.Span{Start: t0, End: t1}
		}
	}
	if tr := m.cfg.Tracer; tr.Enabled() {
		if !m.cp.Staged() {
			stage = -1
		}
		tr.Phase(m.name(r), ph, t0, t1, stage)
	}
}

// ReadDone records one read of compute rank r's ReadEach as a read phase.
func (m *machine) ReadDone(r int, t0, t1 float64) { m.obs(r, metrics.PhaseRead, t0, t1, -1) }

// ioBody is the body of one dedicated I/O processor: per stage, read the
// stage's region from each member — one file at a time across the group —
// then pay the sends, serialized at the sender's link, and notify every
// destination.
type ioBody struct {
	m  *machine
	me *plan.IORank
	si int // the stage in progress
	// The virtual time at the top of this stage (0, then the instant the last
	// file barrier released) and of the one before: the same for every reader
	// of the group, so all evaluate the death predicate alike.
	tStage, tPrev float64
	t0            float64 // the start of the phase in progress
	adopted       []int   // the dead rows served this stage besides its own
	at            uint8   // where the next step resumes
}

// Where an ioBody resumes.
const (
	ioStage = iota // adopt, then read
	ioRead         // the read is done: pay the sends
	ioSent         // the sends are paid: notify
)

func (b *ioBody) Step(proc *sim.Proc) bool {
	m, me := b.m, b.me
	p, g := m.cfg.P, &m.groups[me.Group]
	for {
		switch b.at {
		case ioStage:
			if b.si == len(me.Stages) {
				return true
			}
			st := &me.Stages[b.si]
			// Seam, rows served: the reader's own plus the dead rows it adopts,
			// unless it is itself dead before the stage and leaves its barrier.
			adopted, alive := m.rc.adopt(proc, m.cp, me, st.Stage, b.tStage, b.tPrev)
			if !alive {
				g.bar.Leave()
				return true
			}
			// Read phase: one chain over the members, the group its gate — a
			// member's retry probes, its bar once per served row unless it is
			// dropped, then the file barrier.
			b.adopted, b.t0, b.at = adopted, proc.Now(), ioRead
			if !m.fs.StartEach(proc, st.Members, st.Read.AddrOps, nominalBytes(st.Read.PointsAllLevels(), p.H), g, 1+len(adopted)) {
				return false
			}
		case ioRead:
			st := &me.Stages[b.si]
			m.obs(me.Rank, metrics.PhaseRead, b.t0, proc.Now(), st.Stage)
			b.tPrev, b.tStage = b.tStage, proc.Now()
			// Comm phase: startup + transfer per destination of every served row,
			// each send carrying its block of every live member and level.
			live := 0
			for _, k := range st.Members {
				if !m.rc.drops(k) {
					live++
				}
			}
			sendBytes := nominalBytes(st.Comm.PerDstPoints*m.lv, p.H) * float64(live)
			b.t0, b.at = proc.Now(), ioSent
			proc.After(float64(1+len(b.adopted))*float64(len(st.Comm.Dsts))*(p.A+p.B*sendBytes), proc)
			return false
		case ioSent:
			st := &me.Stages[b.si]
			m.obs(me.Rank, metrics.PhaseComm, b.t0, proc.Now(), st.Stage)
			m.notify(proc, me, st)
			for _, row := range b.adopted {
				// The dead rank's plan entry names the destinations.
				m.notify(proc, me, &m.cp.IOAt(me.Group, row).Stages[b.si])
			}
			b.si, b.at = b.si+1, ioStage
		}
	}
}

// group is one I/O group's file barrier and the parfs.Gate of its readers'
// read chains, whose id is the rows a reader serves. Seam, members: a faulted
// file costs its retry probes; a dropped one is not read, and is announced
// when its probes end.
type group struct {
	rc  *recovery
	bar *sim.Barrier
}

func (g *group) Reads(rows, k int) (probes, n int) {
	if g.rc.drops(k) {
		rows = 0
	}
	return g.rc.probes(k), rows
}

func (g *group) ReadDone(int, float64, float64) {}

func (g *group) Pass(proc *sim.Proc, w sim.Waker, _, k int) bool {
	if g.rc.drops(k) {
		g.rc.drop(proc, k)
	}
	return g.bar.Arrive(proc, w)
}

// notify tells each destination of st — a stage of me's own row or an adopted
// one — that its blocks arrived; the notification is the stage itself, its
// number and member count. Msgs gets the per-(member, level) messages the
// real engine sends for it, from the rank that sends them. Seam, what a send
// carries: nothing of a dropped member, on either substrate.
func (m *machine) notify(proc *sim.Proc, me *plan.IORank, st *plan.IOStage) {
	for _, dst := range st.Comm.Dsts {
		m.boxes[dst].Send(st)
		if m.cfg.Msgs == nil {
			continue
		}
		for _, k := range st.Members {
			if m.rc.drops(k) {
				continue
			}
			for lvl := 0; lvl < m.lv; lvl++ {
				m.cfg.Msgs.OnMessage(me.Rank, dst, m.cp.Spec.Tag(st.Stage, k, lvl),
					plan.StageMsgBytes(m.cp, dst, st.Stage), proc.Now(), proc.Now(), 0)
			}
		}
	}
}

// waits reports whether cr receives its blocks from I/O ranks: it then
// counts them per stage.
func waits(cr *plan.ComputeRank) bool {
	return slices.ContainsFunc(cr.Stages, func(st plan.ComputeStage) bool { return st.Expect > 0 })
}

// computeBody is the body of one compute processor: per stage, wait for the
// Expect per-member blocks or block-read its Self members, then analyse. The
// helper thread is implicit — stage l+1 data accumulates in the mailbox
// during stage l's analysis, exactly the overlap of Figure 8.
type computeBody struct {
	m       *machine
	cr      *plan.ComputeRank
	arrived []int   // per-member blocks received, by stage
	si      int     // the stage in progress
	t0      float64 // the start of the wait or analysis in progress
	at      uint8   // where the next step resumes
}

// Where a computeBody resumes.
const (
	cpStage    = iota // wait for the stage's blocks, or read them
	cpReceive         // take blocks until the stage's have arrived
	cpReceived        // woken with a block handed over
	cpAnalyse         // the blocks are in: analyse
	cpAnalysed        // the analysis is done
)

func (b *computeBody) Step(proc *sim.Proc) bool {
	m, cr := b.m, b.cr
	for {
		switch b.at {
		case cpStage:
			if b.si == len(cr.Stages) {
				return true
			}
			st := &cr.Stages[b.si]
			if st.Expect > 0 {
				b.t0, b.at = proc.Now(), cpReceive
				continue
			}
			// One addressing operation per expansion row and file (§4.1.1).
			b.at = cpAnalyse
			if !m.fs.StartEach(proc, cr.Self.Members, cr.Self.Read.AddrOps, nominalBytes(cr.Self.Read.PointsAllLevels(), m.cfg.P.H), m, cr.Rank) {
				return false
			}
		case cpReceived:
			proc.Unblock()
			b.arrive(proc, proc.Received().(*plan.IOStage))
			b.at = cpReceive
		case cpReceive:
			st := &cr.Stages[b.si]
			for b.arrived[st.Stage] < st.Expect {
				v, ok := m.boxes[cr.Rank].Take(proc, proc)
				if !ok {
					b.at = cpReceived
					return false
				}
				b.arrive(proc, v)
			}
			if b.t0 != proc.Now() {
				m.obs(cr.Rank, metrics.PhaseWait, b.t0, proc.Now(), -1)
			}
			b.at = cpAnalyse
		case cpAnalyse:
			st := &cr.Stages[b.si]
			if st.Stage == 0 && cr.Rank == 0 {
				m.firstStage = proc.Now()
			}
			// Local analysis on the stage's region, level by level.
			b.t0, b.at = proc.Now(), cpAnalysed
			proc.After(m.cfg.P.C*float64(st.Analyze.Points()*m.lv), proc)
			return false
		case cpAnalysed:
			st := &cr.Stages[b.si]
			m.obs(cr.Rank, metrics.PhaseCompute, b.t0, proc.Now(), st.Stage)
			b.si, b.at = b.si+1, cpStage
		}
	}
}

// arrive counts a stage notification's blocks in.
func (b *computeBody) arrive(proc *sim.Proc, n *plan.IOStage) {
	b.arrived[n.Stage] += len(n.Members)
	if tr := b.m.cfg.Tracer; tr.Enabled() && b.m.cp.Staged() && b.arrived[n.Stage] == b.cr.Stages[n.Stage].Expect {
		// The last block of stage n.Stage just arrived: computing that stage
		// is causally legal from this instant on.
		tr.Stage(b.cr.Name, "ready", proc.Now(), n.Stage)
	}
}
