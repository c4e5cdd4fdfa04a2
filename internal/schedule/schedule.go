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
// the machine, spawns one process per plan rank and runs two bodies, io and
// compute. What tells P-EnKF (§2.3: every processor block-reads its
// expansion, no overlap), L-EnKF (§3.1: one reader, one round per member) and
// S-EnKF (§4: n_cg groups of n_sdy bar readers feeding L overlapped stages,
// Figure 8) apart is read from the plan; fault handling is the policy of
// recovery.go. Both substrates interpreting one plan.Compiled, a simulated
// schedule has the structure of a traced real run (plan.ExpectedDAG).
package schedule

import (
	"fmt"
	"math"
	"slices"
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
	ioSpans := m.spans(m.cp.NumCompute(), m.cp.WorldSize(), metrics.PhaseRead, metrics.PhaseComm)
	cpSpans := m.spans(0, m.cp.NumCompute(), metrics.PhaseCompute)
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
	// folded from, tracer on or off. A rank's slice is written by its own
	// process alone and sized for every phase its plan stages can record.
	ledger []rankLedger

	barriers []*sim.Barrier // per I/O group: keeps its readers on the same file (§4.1.3)
	boxes    []*sim.Mailbox // per compute rank, when the plan has I/O ranks to notify it

	end        float64 // final virtual time
	firstStage float64 // instant compute rank 0 starts analysing stage 0
}

// rankLedger is the phases one rank spent time in, in the order it did.
type rankLedger struct {
	name string
	ivs  []interval
}

type interval struct {
	ph     metrics.Phase
	t0, t1 float64
}

// newLedger gives every rank of cp room for what its stages record: a read
// and a comm per I/O stage; per compute stage the analysis and either one
// wait or a read per self-read member.
func newLedger(cp *plan.Compiled) []rankLedger {
	ledger := make([]rankLedger, cp.WorldSize())
	for q := range cp.IO {
		me := &cp.IO[q]
		ledger[me.Rank] = rankLedger{name: me.Name, ivs: make([]interval, 0, 2*len(me.Stages))}
	}
	for q := range cp.Compute {
		cr, n := &cp.Compute[q], 0
		for si := range cr.Stages {
			n += 1 + max(1, len(cr.Stages[si].SelfMembers))
		}
		ledger[cr.Rank] = rankLedger{name: cr.Name, ivs: make([]interval, 0, n)}
	}
	return ledger
}

// mean folds world ranks [lo, hi) into their mean phase breakdown. The order
// of the additions is part of Result's bits: ranks by proc name, a rank's
// intervals as recorded, one running sum per phase, divided once by the
// number of ranks that recorded anything.
func (m *machine) mean(lo, hi int) metrics.Breakdown {
	ranks := slices.DeleteFunc(slices.Clone(m.ledger[lo:hi]), func(r rankLedger) bool { return len(r.ivs) == 0 })
	slices.SortFunc(ranks, func(a, b rankLedger) int { return strings.Compare(a.name, b.name) })
	var b metrics.Breakdown
	for _, r := range ranks {
		for _, iv := range r.ivs {
			b.Add(iv.ph, iv.t1-iv.t0)
		}
	}
	return b.Mean(len(ranks))
}

// spans merges the intervals world ranks [lo, hi) spent in the given phases.
func (m *machine) spans(lo, hi int, phases ...metrics.Phase) []metrics.Span {
	n := 0 // room for every interval of the ranks: no growing by doubling
	for _, r := range m.ledger[lo:hi] {
		n += len(r.ivs)
	}
	raw := make([]metrics.Span, 0, n)
	for _, r := range m.ledger[lo:hi] {
		for _, iv := range r.ivs {
			if slices.Contains(phases, iv.ph) {
				raw = append(raw, metrics.Span{Start: iv.t0, End: iv.t1})
			}
		}
	}
	return metrics.UnionSpans(raw)
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
	if cfg.Faults != nil && tr.Enabled() {
		// One fault instant per injected straggler, so the injections are in
		// the event stream (and before a live monitor) before their effects.
		for _, s := range cfg.Faults.Stragglers {
			tr.Instant(s.Proc, trace.CatFault, "straggler", 0, trace.Arg{Key: "factor", Val: s.Factor})
		}
	}

	if n := len(cp.IO); n > 0 {
		// One file barrier per I/O group — group-major and equally sized in
		// the plan: n_sdy bar readers, or the single reader, whom a barrier of
		// one never parks — and one mailbox per compute rank they notify.
		groups := cp.IO[n-1].Group + 1
		for g := 0; g < groups; g++ {
			m.barriers = append(m.barriers, sim.NewBarrier(env, fmt.Sprintf("grp%d", g), n/groups))
		}
		m.boxes = make([]*sim.Mailbox, cp.NumCompute())
		for q := range cp.Compute {
			cr := &cp.Compute[q]
			m.boxes[cr.Rank] = sim.NewMailbox(env, fmt.Sprintf("mb%d.%d", cr.J, cr.I))
		}
	}
	for q := range cp.IO {
		me := &cp.IO[q]
		env.Go(me.Name, func(p *sim.Proc) { m.io(p, me) })
	}
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		env.Go(cr.Name, func(p *sim.Proc) { m.compute(p, cr) })
	}
	m.end, err = env.Run()
	if cfg.Obs != nil {
		err = cfg.Obs.EndRun(err) // a monitor may add blamed plan edges and a dump
	}
	return m, err
}

// obs records one phase interval of world rank r: in the ledger and — when
// tracing — as a span on the rank's own track, stage-tagged, as in core, on a
// staged plan. An interval of no length is a span but not a ledger entry.
func (m *machine) obs(r int, ph metrics.Phase, t0, t1 float64, stage int) {
	led := &m.ledger[r]
	if t1 > t0 {
		led.ivs = append(led.ivs, interval{ph, t0, t1})
	}
	tr := m.cfg.Tracer
	switch {
	case !tr.Enabled():
	case stage >= 0 && m.cp.Staged():
		tr.Span(led.name, trace.CatPhase, ph.String(), t0, t1, trace.Arg{Key: trace.ArgStage, Val: float64(stage)})
	default:
		tr.Span(led.name, trace.CatPhase, ph.String(), t0, t1)
	}
}

// io is the body of one dedicated I/O processor: per stage, read the stage's
// region from each member — one file at a time across the group — then pay
// the sends, serialized at the sender's link, and notify every destination.
func (m *machine) io(proc *sim.Proc, me *plan.IORank) {
	p, bar := m.cfg.P, m.barriers[me.Group]
	// The virtual time at the top of this stage (0, then the instant the last
	// file barrier released) and of the one before: the same for every reader
	// of the group, so all evaluate the death predicate alike.
	tStage, tPrev := 0.0, 0.0
	for si := range me.Stages {
		st := &me.Stages[si]
		// Seam, rows served: the reader's own plus the dead rows it adopts,
		// unless it is itself dead before the stage and leaves its barrier.
		adopted, alive := m.rc.adopt(proc, me, m.cp.Spec.Dec.NSdy, st.Stage, tStage, tPrev)
		if !alive {
			bar.Leave()
			return
		}
		rows := 1 + len(adopted)
		// Read phase, once per served row. Seam, members: a faulted file
		// costs its retry probes; a dropped one is not read.
		barBytes := nominalBytes(st.Read.PointsAllLevels(), p.H)
		live := 0
		t0 := proc.Now()
		for _, k := range st.Members {
			if m.rc.probe(proc, m.fs, k) {
				live++
				for r := 0; r < rows; r++ {
					m.fs.Read(proc, k, st.Read.AddrOps, barBytes)
				}
			}
			bar.Wait(proc)
		}
		m.obs(me.Rank, metrics.PhaseRead, t0, proc.Now(), st.Stage)
		tPrev, tStage = tStage, proc.Now()
		// Comm phase: startup + transfer per destination of every served row,
		// each send carrying its block of every live member and level.
		sendBytes := nominalBytes(st.Comm.PerDstPoints*m.lv, p.H) * float64(live)
		t0 = proc.Now()
		proc.Sleep(float64(rows) * float64(len(st.Comm.Dsts)) * (p.A + p.B*sendBytes))
		m.obs(me.Rank, metrics.PhaseComm, t0, proc.Now(), st.Stage)
		m.notify(proc, me, st)
		for _, row := range adopted {
			// The dead rank's plan entry names the destinations.
			m.notify(proc, me, &m.cp.IOAt(me.Group, row).Stages[si])
		}
	}
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

// compute is the body of one compute processor: per stage, wait for the
// Expect per-member blocks or block-read SelfMembers, then analyse. The helper
// thread is implicit — stage l+1 data accumulates in the mailbox during stage
// l's analysis, exactly the overlap of Figure 8.
func (m *machine) compute(proc *sim.Proc, cr *plan.ComputeRank) {
	p, tr := m.cfg.P, m.cfg.Tracer
	var arrived []int // per-member blocks received, by stage
	for si := range cr.Stages {
		st := &cr.Stages[si]
		if st.Expect > 0 {
			if arrived == nil {
				arrived = make([]int, len(cr.Stages))
			}
			t0 := proc.Now()
			for arrived[st.Stage] < st.Expect {
				n := m.boxes[cr.Rank].Recv(proc).(*plan.IOStage)
				arrived[n.Stage] += len(n.Members)
				if tr.Enabled() && m.cp.Staged() && arrived[n.Stage] == cr.Stages[n.Stage].Expect {
					// The last block of stage n.Stage just arrived: computing
					// that stage is causally legal from this instant on.
					tr.Instant(cr.Name, trace.CatStage, "ready", proc.Now(),
						trace.Arg{Key: trace.ArgStage, Val: float64(n.Stage)})
				}
			}
			if t0 != proc.Now() {
				m.obs(cr.Rank, metrics.PhaseWait, t0, proc.Now(), -1)
			}
		} else {
			// One addressing operation per expansion row and file (§4.1.1).
			blockBytes := nominalBytes(st.Read.PointsAllLevels(), p.H)
			for _, k := range st.SelfMembers {
				t0 := proc.Now()
				m.fs.Read(proc, k, st.Read.AddrOps, blockBytes)
				m.obs(cr.Rank, metrics.PhaseRead, t0, proc.Now(), -1)
			}
		}
		if st.Stage == 0 && cr.Rank == 0 {
			m.firstStage = proc.Now()
		}
		// Local analysis on the stage's region, level by level.
		t0 := proc.Now()
		proc.Sleep(p.C * float64(st.Analyze.Points()*m.lv))
		m.obs(cr.Rank, metrics.PhaseCompute, t0, proc.Now(), st.Stage)
	}
}
