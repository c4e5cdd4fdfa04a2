// The real-substrate plan interpreter: one orchestration loop executing any
// compiled plan (S-EnKF, P-EnKF or L-EnKF) on the goroutine message-passing
// runtime against real member files. The algorithm-specific entry points —
// RunSEnKF, RunSEnKFMultiLevel and RunSEnKFResilient here, RunPEnKF/RunLEnKF
// in internal/baseline — are thin wrappers that compile a plan.Spec and hand
// the schedule to this loop, the resilient one together with the recovery
// policy of resilient.go, consulted at the four seams marked below.
// internal/schedule replays the same plans on the discrete-event substrate.

package core

import (
	"fmt"
	"sync"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/mpi"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

// observe emits one phase interval as a span on the rank's track, in seconds
// since t0, stage-tagged when stage >= 0. The span is the run's only record
// of the phase: breakdowns are folded from the stream (trace.PhaseBreakdown).
func observe(p plan.Problem, proc string, ph metrics.Phase, t0, from, to time.Time, stage int) {
	if !p.Tr.Enabled() {
		return
	}
	f, t := from.Sub(t0).Seconds(), to.Sub(t0).Seconds()
	if stage >= 0 {
		p.Tr.Span(proc, trace.CatPhase, ph.String(), f, t,
			trace.Arg{Key: trace.ArgStage, Val: float64(stage)})
	} else {
		p.Tr.Span(proc, trace.CatPhase, ph.String(), f, t)
	}
}

// stretch dilates a straggling rank's just-finished busy phase on the wall
// clock: it sleeps (factor−1)× the elapsed time, so the phase span —
// measured after the sleep by observe() — is factor× its natural duration.
// The dilation beat is announced as a fault instant so a monitor can
// attribute the slowdown to the injection rather than to real contention.
// factor <= 1 (the nil-Faults case) is an exact no-op.
func stretch(p plan.Problem, proc string, t0, start time.Time, factor float64) {
	if factor <= 1 {
		return
	}
	time.Sleep(time.Duration(float64(time.Since(start)) * (factor - 1)))
	if p.Tr.Enabled() {
		p.Tr.Instant(proc, trace.CatFault, "straggle", time.Since(t0).Seconds(),
			trace.Arg{Key: "factor", Val: factor})
	}
}

// announceFaults emits one fault instant per injected straggler before the
// ranks start, mirroring the simulated substrate's announcement, so a
// monitor can distinguish injected slowdowns from organic ones.
func announceFaults(p plan.Problem) {
	if p.Faults == nil || !p.Tr.Enabled() {
		return
	}
	for _, s := range p.Faults.Stragglers {
		p.Tr.Instant(s.Proc, trace.CatFault, "straggler", 0,
			trace.Arg{Key: "factor", Val: s.Factor})
	}
}

// addIOStats feeds one member file's addressing counters into the tracer's
// registry so real runs expose the same accounting the cost model predicts.
func addIOStats(tr *trace.Tracer, st ensio.IOStats) {
	reg := tr.Counters()
	reg.Add("ensio.seeks", float64(st.Seeks))
	reg.Add("ensio.bytes", float64(st.BytesRead))
	reg.Add("ensio.reads", float64(st.Reads))
	if st.Retries > 0 {
		reg.Add("ensio.retries", float64(st.Retries))
	}
}

// geometryError marks a member file that opened but fails CheckGeometry.
type geometryError struct{ error }

// openMember opens member k's file and checks it against the run's geometry.
func openMember(p plan.Problem, k, levels int, o ensio.OpenOptions) (*ensio.MemberFile, error) {
	mf, err := ensio.OpenMemberOpts(ensio.MemberPath(p.Dir, k), o)
	if err != nil {
		return nil, err
	}
	if err := mf.CheckGeometry(p.Cfg.Mesh.NX, p.Cfg.Mesh.NY, levels, k); err != nil {
		mf.Close()
		return nil, geometryError{err}
	}
	return mf, nil
}

// ExecutePlan runs a compiled single-level plan on the real substrate and
// returns the analysis ensemble.
func ExecutePlan(p plan.Problem, c *plan.Compiled) ([][]float64, error) {
	out, err := ExecutePlanLevels(p, c)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, nil
	}
	return out[0], nil
}

// ExecutePlanLevels runs a compiled plan on the real substrate and returns
// the analysis as [level][member][]field, every compute rank having written
// its own sub-domain of it. It is the one orchestration loop behind every
// real entry point: a single-level problem (Levels() == 1) produces exactly
// the classic execution — same reads, tags, spans and bits — with the result
// wrapped in a one-element level slice.
func ExecutePlanLevels(p plan.Problem, c *plan.Compiled) ([][][]float64, error) {
	return execute(p, c, nil)
}

// execute is ExecutePlanLevels under a recovery policy (nil: none). With one,
// fields are indexed by survivor position and rc.agreed says whose they are.
func execute(p plan.Problem, c *plan.Compiled, rc *recovery) ([][][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.Spec.Dec.Mesh != p.Cfg.Mesh {
		return nil, fmt.Errorf("core: decomposition mesh %v differs from config mesh %v", c.Spec.Dec.Mesh, p.Cfg.Mesh)
	}
	if c.Spec.N != p.Cfg.N {
		return nil, fmt.Errorf("core: plan compiled for %d members, config has %d", c.Spec.N, p.Cfg.N)
	}
	if c.Spec.LevelCount() != p.Levels() {
		return nil, fmt.Errorf("core: plan compiled for %d levels, problem has %d", c.Spec.LevelCount(), p.Levels())
	}
	w, err := mpi.NewWorld(c.WorldSize())
	if err != nil {
		return nil, err
	}
	w.SetTracer(p.Tr)
	if p.Msgs != nil {
		// The plan-layer message observer satisfies the transport's
		// structurally identical interface, so the engine just passes it
		// through after announcing the plan geometry.
		p.Msgs.BeginMessages(c)
		w.SetMsgObserver(p.Msgs)
	}
	if p.Obs != nil {
		p.Obs.BeginRun(c)
	}
	announceFaults(p)
	// The result is allocated once, by the first compute rank to know the
	// configuration the run analyses with, and written by all of them: each
	// analyses its own rectangle of every field, and no two rectangles share a
	// point. Each level's table of perturbed rows, which every compute rank
	// draws into and copies from, is taken here and given back below, on this
	// goroutine: a sync.Pool hands the value a processor put last to that
	// processor only, and taken by a rank a table missed the pool on one dense
	// run in eight (DESIGN.md ch. 26). The rank that allocates the result
	// retakes a table made for another configuration than the one the run
	// analyses with — fewer members, when a recovery policy dropped some.
	var (
		fields [][][]float64
		once   sync.Once
	)
	draws := make([]*obs.Perturbations, p.Levels())
	for lvl := range draws {
		draws[lvl] = obs.NewPerturbations(p.NetAt(lvl).Obs, p.Cfg.N, p.Cfg.Seed)
	}
	shared := func(cfg enkf.Config) ([][][]float64, []*obs.Perturbations) {
		once.Do(func() {
			fields = newFields(p.Levels(), cfg.N, p.Cfg.Mesh.Points())
			for lvl, d := range draws {
				if net := p.NetAt(lvl).Obs; !d.For(net, cfg.N, cfg.Seed) {
					d.Release()
					draws[lvl] = obs.NewPerturbations(net, cfg.N, cfg.Seed)
				}
			}
		})
		return fields, draws
	}
	t0 := time.Now()
	err = w.Run(func(comm *mpi.Comm) error {
		// Each rank body runs under its proc-name pprof scope, so CPU
		// profiles attribute every rank goroutine (and the helpers it
		// spawns, which inherit the labels) to its plan coordinates.
		if comm.Rank() < c.NumCompute() {
			r := c.Compute[comm.Rank()]
			sc := p.Prof.Scope(r.Name)
			return sc.Do(func() error { return engineCompute(comm, p, c, r, rc, shared, t0, sc) })
		}
		r := c.IO[comm.Rank()-c.NumCompute()]
		sc := p.Prof.Scope(r.Name)
		return sc.Do(func() error { return engineIO(comm, p, c, r, rc, t0, sc) })
	})
	// Each table drew a row once, whichever and however many boxes used it.
	for _, d := range draws {
		p.Tr.Counters().Add("obs.perturbed_rows", float64(d.Drawn()))
		d.Release()
	}
	if p.Obs != nil {
		err = p.Obs.EndRun(err)
	}
	if err != nil {
		return nil, err
	}
	return fields, nil
}

// engineIO is the body of one dedicated I/O rank: per stage, read the
// stage's region from every member of the stage, then cut and send every
// destination its block of every member.
func engineIO(comm *mpi.Comm, p plan.Problem, c *plan.Compiled, r plan.IORank, rc *recovery, t0 time.Time, sc *runtimeobs.Scope) error {
	staged := c.Staged()
	nl := c.Spec.LevelCount()
	slow := p.Faults.SlowdownFor(r.Name)

	// Keep the rank's member files open across stages — each stage reads a
	// different region of the same files.
	files := make(map[int]*ensio.MemberFile, len(r.Members))
	defer func() {
		for _, f := range files {
			addIOStats(p.Tr, f.Stats())
			f.Close()
		}
	}()
	// Seam 1, open: the policy supplies the open options and turns a failure
	// into a drop code to agree on instead of a fatal error. A rank dead from
	// the start opens nothing but still joins the agreement.
	codes, opts := rc.reportCodes(c, r), rc.openOptions()
	if !rc.dead(r, 0) {
		for _, k := range r.Members {
			mf, err := openMember(p, k, nl, opts)
			if err != nil {
				if rc == nil {
					return err
				}
				if codes != nil {
					codes[k] = classifyOpenError(err)
				}
				continue
			}
			files[k] = mf
		}
	}
	// Seam 2, membership: identity without a policy, agreed world-wide with.
	mem, _, err := rc.agree(comm, p, c, t0, codes)
	if err != nil {
		return err
	}

	// serve runs one stage of a bar row — the rank's own or an adopted one;
	// either way the work, and so the spans and labels, are this rank's.
	serve := func(st *plan.IOStage) error {
		tag := -1
		if staged {
			tag = st.Stage
		}
		return sc.Stage(tag, func() error {
			// Read phase: the stage's contiguous region of each member — one
			// addressing operation per member read (bar reading, §4.1.2),
			// fetching every level of the stage rows at once on multilevel
			// files (the level-interleaved layout's co-design) and decoding
			// them straight into the payload of each destination and level.
			readStart := time.Now()
			boxes := make([]grid.Box, len(st.Comm.Dsts))
			for di, dst := range st.Comm.Dsts {
				boxes[di] = c.Compute[dst].Stages[st.Stage].Box
			}
			payloads := make([][][][]float64, len(st.Members)) // [member][dst][level]
			for mi, k := range st.Members {
				if mem.pos(k) < 0 {
					continue
				}
				mf := files[k]
				if mf == nil {
					return fmt.Errorf("core: reader %s lost member %d agreed as a survivor", r.Name, k)
				}
				var err error
				if payloads[mi], err = mf.ReadBarBoxes(st.Read.Box.Y0, st.Read.Box.Y1, boxes); err != nil {
					return err
				}
			}
			stretch(p, r.Name, t0, readStart, slow)
			observe(p, r.Name, metrics.PhaseRead, t0, readStart, time.Now(), tag)

			// Comm phase: every destination gets its stage box of every
			// member, one message per level, tagged in member space. Each
			// payload and its meta were cut for this one receiver, so both
			// are handed over; the levels' metas share one allocation.
			commStart := time.Now()
			for mi, k := range st.Members {
				if payloads[mi] == nil {
					continue
				}
				for di, dst := range st.Comm.Dsts {
					box := boxes[di]
					metas := make([]int, 0, 5*len(payloads[mi][di]))
					for lvl, payload := range payloads[mi][di] {
						metas = append(metas, k, box.X0, box.X1, box.Y0, box.Y1)
						meta := metas[len(metas)-5 : len(metas) : len(metas)]
						if err := comm.SendOwned(dst, c.Spec.Tag(st.Stage, k, lvl), meta, payload); err != nil {
							return err
						}
					}
				}
			}
			stretch(p, r.Name, t0, commStart, slow)
			observe(p, r.Name, metrics.PhaseComm, t0, commStart, time.Now(), tag)
			return nil
		})
	}

	for si := range r.Stages {
		// Seam 3, rows served: the rank's own plus the dead rows it adopts,
		// unless it is itself dead before the stage and leaves.
		adopted, alive := rc.adopt(p, c, r, r.Stages[si].Stage, t0)
		if !alive {
			return nil
		}
		if err := serve(&r.Stages[si]); err != nil {
			return err
		}
		for _, row := range adopted {
			if err := serve(&c.IOAt(r.Group, row).Stages[si]); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineCompute is the body of one compute rank. Stages whose data arrives
// by message are assembled by a helper goroutine (§4.2) that signals the
// main flow stage by stage; self-read stages block-read the member files
// directly. The main flow analyses each stage's region straight into the
// run's result fields with the run's perturbation tables, which shared
// returns for the agreed configuration, and tells world rank 0 when its
// sub-domain is written.
func engineCompute(comm *mpi.Comm, p plan.Problem, c *plan.Compiled, r plan.ComputeRank, rc *recovery, shared func(cfg enkf.Config) ([][][]float64, []*obs.Perturbations), t0 time.Time, sc *runtimeobs.Scope) error {
	staged := c.Staged()
	nl := c.Spec.LevelCount()
	slow := p.Faults.SlowdownFor(r.Name)

	// Seam 2 again (compute ranks report nothing). Seam 4 is every use of
	// mem below: a stage expects the survivors' tags, places member k at its
	// survivor position and is analysed with the membership's configuration.
	mem, cfg, err := rc.agree(comm, p, c, t0, nil)
	if err != nil {
		return err
	}
	n := cfg.N
	// The destination of every stage and level: the whole mesh, of which this
	// rank writes the points of its sub-domain and no other.
	result, draws := shared(cfg)
	results := make([]*enkf.Block, nl)
	for lvl, fields := range result {
		results[lvl] = &enkf.Block{Box: grid.Box{X0: 0, X1: cfg.Mesh.NX, Y0: 0, Y1: cfg.Mesh.NY}, Data: fields}
	}

	type stageData struct {
		blks []*enkf.Block // one per level
		err  error
	}
	var assembled chan stageData
	recvStages := 0
	for _, st := range r.Stages {
		if st.Expect > 0 {
			recvStages++
		}
	}
	if recvStages > 0 {
		assembled = make(chan stageData, recvStages)
		// Helper thread: receive the Expect per-member blocks of each
		// message stage (one per level), assemble them, and hand the stage
		// over. The goroutine inherits the rank's pprof labels at spawn;
		// each stage's receive/assemble work is additionally stage-tagged.
		go func() {
			for _, st := range r.Stages {
				st := st
				if st.Expect == 0 {
					continue
				}
				var blks []*enkf.Block
				err := sc.Stage(st.Stage, func() error {
					blks = stageBlocks(st.Box, n, nl)
					for k := 0; k < st.Expect; k++ {
						s := mem.pos(k)
						if s < 0 {
							continue
						}
						for lvl := 0; lvl < nl; lvl++ {
							m, err := comm.Recv(mpi.AnySource, c.Spec.Tag(st.Stage, k, lvl))
							if err != nil {
								return err
							}
							if len(m.Meta) != 5 {
								return &metaError{what: fmt.Sprintf("stage %d member %d block", st.Stage, k), got: len(m.Meta), want: 5}
							}
							box := grid.Box{X0: m.Meta[1], X1: m.Meta[2], Y0: m.Meta[3], Y1: m.Meta[4]}
							if box != st.Box {
								return fmt.Errorf("core: stage %d member %d box %v, want %v", st.Stage, k, box, st.Box)
							}
							if len(m.Data) != st.Box.Points() {
								return fmt.Errorf("core: stage %d member %d payload %d, want %d", st.Stage, k, len(m.Data), st.Box.Points())
							}
							blks[lvl].Data[s] = m.Data
						}
					}
					return nil
				})
				if err != nil {
					assembled <- stageData{err: err}
					return
				}
				if staged && p.Tr.Enabled() {
					// Helper-thread handoff: the stage is fully assembled
					// and ready for the main thread from this instant on.
					p.Tr.Instant(r.Name, trace.CatStage, "ready", time.Since(t0).Seconds(),
						trace.Arg{Key: trace.ArgStage, Val: float64(st.Stage)})
				}
				assembled <- stageData{blks: blks}
			}
		}()
	}

	// One analysis workspace per compute rank: its scratch is reused across
	// stages and levels, and it keeps only the observations a stage can use.
	// The rank owns it from here until it returns, by whichever path.
	ws := workspaces.Get().(*enkf.Workspace)
	defer workspaces.Put(ws)
	for _, st := range r.Stages {
		st := st
		tag := -1
		if staged {
			tag = st.Stage
		}

		err := sc.Stage(tag, func() error {
			if st.Analyze.Intersect(r.Sub) != st.Analyze {
				return fmt.Errorf("core: stage %d of %s analyses %v, outside its sub-domain %v", st.Stage, r.Name, st.Analyze, r.Sub)
			}
			var blks []*enkf.Block
			if st.Expect > 0 {
				waitStart := time.Now()
				sd := <-assembled
				if sd.err != nil {
					return sd.err
				}
				observe(p, r.Name, metrics.PhaseWait, t0, waitStart, time.Now(), -1)
				blks = sd.blks
			} else {
				// Block reading (§2.3): the rank reads its own expansion from
				// every member file, one addressing operation per row — rows
				// that are levels× heavier on multilevel files.
				blks = stageBlocks(st.Box, n, nl)
				for _, k := range st.SelfMembers {
					readStart := time.Now()
					mf, err := openMember(p, k, nl, ensio.OpenOptions{})
					if err != nil {
						return err
					}
					data, err := mf.ReadBlockLevels(st.Read.Box)
					addIOStats(p.Tr, mf.Stats())
					mf.Close()
					if err != nil {
						return err
					}
					for lvl, d := range data {
						blks[lvl].Data[k] = d
					}
					stretch(p, r.Name, t0, readStart, slow)
					observe(p, r.Name, metrics.PhaseRead, t0, readStart, time.Now(), -1)
				}
			}

			// One compute span covers the stage's level loop: levels scale
			// the analysis work, not the stage topology.
			compStart := time.Now()
			for lvl := 0; lvl < nl; lvl++ {
				if err := ws.AnalyzeInto(cfg, results[lvl], blks[lvl], p.NetAt(lvl).Obs, st.Analyze, draws[lvl]); err != nil {
					return err
				}
			}
			// The stage is analysed and nothing refers to its payloads any
			// more: the next reads may have them.
			for _, blk := range blks {
				ensio.Recycle(blk.Data)
			}
			stretch(p, r.Name, t0, compStart, slow)
			observe(p, r.Name, metrics.PhaseCompute, t0, compStart, time.Now(), tag)
			if staged && p.Tr.Enabled() {
				p.Tr.Instant(r.Name, trace.CatStage, "computed", time.Since(t0).Seconds(),
					trace.Arg{Key: trace.ArgStage, Val: float64(st.Stage)})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return gatherResults(comm, cfg, r.Sub, c.NumCompute())
}

// workspaces holds analysis workspaces between runs: in a forecast–analysis
// cycle the same ranks analyse the same shapes every cycle, so the scratch one
// run grew is the scratch the next one needs. A workspace keeps no reference
// to the blocks it analysed.
var workspaces = sync.Pool{New: func() any { return new(enkf.Workspace) }}

// stageBlocks returns one block header per level over a stage box: the rows
// are assigned, not filled — each is a received payload or a block read.
func stageBlocks(box grid.Box, n, levels int) []*enkf.Block {
	blks := make([]*enkf.Block, levels)
	for lvl := range blks {
		blks[lvl] = &enkf.Block{Box: box, Data: make([][]float64, n)}
	}
	return blks
}

// newFields allocates a result: n zeroed fields of points values per level.
func newFields(levels, n, points int) [][][]float64 {
	fields := make([][][]float64, levels)
	for lvl := range fields {
		fields[lvl] = make([][]float64, n)
		for k := range fields[lvl] {
			fields[lvl][k] = make([]float64, points)
		}
	}
	return fields
}

// metaError reports a received message whose meta is not the length its
// reader indexes.
type metaError struct {
	what      string
	got, want int
}

func (e *metaError) Error() string {
	return fmt.Sprintf("core: %s carries %d meta values, want %d", e.what, e.got, e.want)
}

// gatherResults tells world rank 0 that the caller's sub-domain of the result
// is written: one token per rank — its box and member count, no payload —
// whose receipt orders the rank's writes before rank 0's return. Rank 0 checks
// that the sub-domains cover every mesh point exactly once, inside the mesh,
// with one member count.
func gatherResults(comm *mpi.Comm, cfg enkf.Config, sub grid.Box, contributors int) error {
	if comm.Rank() != 0 {
		return comm.Send(0, resultTag, []int{sub.X0, sub.X1, sub.Y0, sub.Y1, cfg.N}, nil)
	}
	m := cfg.Mesh
	covered := make([]bool, m.Points())
	place := func(sub grid.Box) error {
		if sub.Clamp(m) != sub {
			return fmt.Errorf("core: sub-domain %v outside the %dx%d mesh", sub, m.NX, m.NY)
		}
		for y := sub.Y0; y < sub.Y1; y++ {
			row := covered[m.Index(sub.X0, y):][:sub.Width()]
			for i, c := range row {
				if c {
					return fmt.Errorf("core: point (%d,%d) covered twice", sub.X0+i, y)
				}
				row[i] = true
			}
		}
		return nil
	}
	if err := place(sub); err != nil {
		return err
	}
	for i := 1; i < contributors; i++ {
		msg, err := comm.Recv(mpi.AnySource, resultTag)
		if err != nil {
			return err
		}
		if len(msg.Meta) != 5 {
			return &metaError{what: fmt.Sprintf("completion token of rank %d", msg.Src), got: len(msg.Meta), want: 5}
		}
		if msg.Meta[4] != cfg.N {
			return fmt.Errorf("core: rank %d analysed %d members, rank 0 %d", msg.Src, msg.Meta[4], cfg.N)
		}
		if err := place(grid.Box{X0: msg.Meta[0], X1: msg.Meta[1], Y0: msg.Meta[2], Y1: msg.Meta[3]}); err != nil {
			return err
		}
	}
	for idx, c := range covered {
		if !c {
			x, y := m.Coords(idx)
			return fmt.Errorf("core: point (%d,%d) not covered", x, y)
		}
	}
	return nil
}
