// Resilient S-EnKF: the same concurrent-group, multi-stage schedule as
// RunSEnKF, hardened against the failures a parallel file system and a
// large rank count actually produce — unreadable or corrupted member
// files, transient storage errors, and I/O-rank deaths.
//
// The recovery model is fail-stop with perfect failure detection, realised
// deterministically: every failure either surfaces as a classifiable open
// error (agreed world-wide through one Allreduce before the stage loop) or
// is a plan-declared rank death that every rank evaluates identically from
// the shared fault plan. Unreadable members are dropped and the analysis
// continues on the N−k survivors with a variance-preserving inflation
// reweighting; dead readers' bar rows are adopted by their cyclic successor
// within the group (failover), so compute ranks still receive every stage
// block. The outcome is a structured DegradedResult instead of a crash.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/mpi"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// Resilience configures the hardened run.
type Resilience struct {
	// Faults is the injected fault plan (nil runs the hardened schedule on
	// a healthy system; the recovery machinery then only verifies).
	Faults *faults.Plan
	// Retry bounds per-operation read retries. A zero value defaults to
	// the fault plan's retry budget with no backoff.
	Retry ensio.RetryPolicy
	// NoVerify skips payload-checksum verification at open. Verification
	// is on by default: it is what converts silent corruption into a
	// clean member drop.
	NoVerify bool
	// MinMembers aborts the run when fewer members survive (values below
	// 2 mean 2 — an ensemble needs at least two members).
	MinMembers int
}

func (r Resilience) retry() ensio.RetryPolicy {
	if r.Retry.Attempts >= 1 || r.Retry.Backoff > 0 {
		return r.Retry
	}
	return ensio.RetryPolicy{Attempts: r.Faults.Budget()}
}

func (r Resilience) minMembers() int {
	if r.MinMembers < 2 {
		return 2
	}
	return r.MinMembers
}

// DroppedMember records one member excluded from the analysis and why.
type DroppedMember struct {
	Member int
	Reason string // "missing", "corrupt", "truncated", "io", "geometry"
}

// Failover records a dead reader's bar row being adopted by a survivor.
type Failover struct {
	Group      int
	FromReader int
	ToReader   int
	Stage      int // first stage the successor served the row
}

// DegradedResult is the structured outcome of a resilient run: the
// analysis over the surviving members plus everything a caller needs to
// interpret it.
type DegradedResult struct {
	// Fields is the analysis ensemble of the survivors, indexed by
	// survivor position (Fields[s] belongs to member Survivors[s]).
	Fields [][]float64
	// Survivors lists the member indices that were assimilated, ascending.
	Survivors []int
	Dropped   []DroppedMember
	Failovers []Failover
	// EffectiveConfig is the configuration the analysis actually ran with:
	// N shrunk to the survivor count and Inflation scaled by
	// sqrt((N−1)/(N′−1)) so the ensemble variance is not biased low by the
	// lost members. Callers can feed it to enkf.SerialReference to verify
	// the degraded result independently.
	EffectiveConfig enkf.Config
	// Degraded is true when anything was dropped or failed over.
	Degraded bool
}

// Member-drop reason codes exchanged through the agreement Allreduce.
const (
	dropMissing   = 1
	dropCorrupt   = 2
	dropTruncated = 3
	dropIO        = 4
	dropGeometry  = 5
)

func dropReason(code int) string {
	switch code {
	case dropMissing:
		return "missing"
	case dropCorrupt:
		return "corrupt"
	case dropTruncated:
		return "truncated"
	case dropIO:
		return "io"
	case dropGeometry:
		return "geometry"
	}
	return fmt.Sprintf("code(%d)", code)
}

// classifyOpenError maps an ensio open failure to a drop-reason code.
func classifyOpenError(err error) int {
	if errors.Is(err, os.ErrNotExist) {
		return dropMissing
	}
	var ce *ensio.CorruptionError
	if errors.As(err, &ce) {
		return dropCorrupt
	}
	if strings.Contains(err.Error(), "truncated") {
		return dropTruncated
	}
	return dropIO
}

// RunSEnKFResilient executes the hardened S-EnKF schedule. Unreadable
// members are dropped (not fatal) down to Resilience.MinMembers; plan-
// declared reader deaths fail over to the group's surviving readers. The
// DegradedResult is assembled at world rank 0.
func RunSEnKFResilient(p Problem, pl Plan, r Resilience) (*DegradedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pl.Dec.Mesh != p.Cfg.Mesh {
		return nil, fmt.Errorf("core: decomposition mesh %v differs from config mesh %v", pl.Dec.Mesh, p.Cfg.Mesh)
	}
	if err := pl.Validate(p.Cfg.N); err != nil {
		return nil, err
	}
	fp := r.Faults
	if err := fp.Validate(pl.NCg, pl.Dec.NSdy, pl.L, p.Cfg.N, 0); err != nil {
		return nil, err
	}
	if fp != nil {
		for _, d := range fp.Deaths {
			if d.At > 0 {
				return nil, fmt.Errorf("core: time-based rank death (At=%g) is simulation-only; use BeforeStage for real runs", d.At)
			}
		}
	}
	cp, err := plan.Compile(pl.Spec(p.Cfg.N))
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(cp.WorldSize())
	if err != nil {
		return nil, err
	}
	w.SetTracer(p.Tr)
	if p.Msgs != nil {
		p.Msgs.BeginMessages(cp)
		w.SetMsgObserver(p.Msgs)
	}
	var out *DegradedResult
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() < cp.NumCompute() {
			res, err := runComputeResilient(c, p, cp, r, t0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = res
			}
			return nil
		}
		return runIOResilient(c, p, cp, r, t0)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// agreeMembership is the world-wide failure-detection barrier: every rank
// contributes a drop-reason vector (only the designated reporter of each
// I/O group reports non-zero codes) and receives the identical sum, so all
// ranks derive the same survivor set without further communication.
func agreeMembership(c *mpi.Comm, n int, codes []float64) (survivors []int, posOf map[int]int, dropped []DroppedMember, err error) {
	agreed, err := c.AllreduceSum(codes)
	if err != nil {
		return nil, nil, nil, err
	}
	posOf = map[int]int{}
	for k := 0; k < n; k++ {
		if code := int(agreed[k]); code != 0 {
			dropped = append(dropped, DroppedMember{Member: k, Reason: dropReason(code)})
			continue
		}
		posOf[k] = len(survivors)
		survivors = append(survivors, k)
	}
	return survivors, posOf, dropped, nil
}

// effectiveConfig shrinks the ensemble to the survivors and scales the
// inflation so the analysis-spread loss from dropped members is
// compensated: deviations are multiplied by sqrt((N−1)/(N′−1)), the factor
// that restores the unbiased sample-variance normalisation.
func effectiveConfig(cfg enkf.Config, effN int) enkf.Config {
	out := cfg
	out.N = effN
	if effN < cfg.N {
		infl := cfg.Inflation
		if infl < 1 {
			infl = 1
		}
		out.Inflation = infl * math.Sqrt(float64(cfg.N-1)/float64(effN-1))
	}
	return out
}

// planFailovers derives the failover assignments from the plan — every
// rank could compute this, but only rank 0 needs it for the result.
func planFailovers(fp *faults.Plan, nsdy int) []Failover {
	if fp == nil {
		return nil
	}
	var out []Failover
	for _, d := range fp.Deaths {
		if d.At > 0 {
			continue
		}
		dead := func(jj int) bool { return fp.DeadBeforeStage(d.Group, jj, d.BeforeStage) }
		if s, ok := faults.Successor(d.Reader, nsdy, dead); ok {
			out = append(out, Failover{Group: d.Group, FromReader: d.Reader, ToReader: s, Stage: d.BeforeStage})
		}
	}
	return out
}

// runIOResilient is the hardened body of I/O rank (group g, bar row j):
// the compiled plan supplies the rank's identity, members and per-stage
// read/send geometry; the failover policy decides which rows it serves.
func runIOResilient(c *mpi.Comm, p Problem, cp *plan.Compiled, r Resilience, t0 time.Time) error {
	me := cp.IO[c.Rank()-cp.NumCompute()]
	g, j, name := me.Group, me.Row, me.Name
	nsdy, nStages := cp.Spec.Dec.NSdy, cp.Spec.L
	fp := r.Faults
	tr := p.Tr

	// A rank dead before stage 0 opens nothing; it still joins the
	// membership agreement (failure detection is perfect and instant under
	// the plan model) and then leaves.
	deadFromStart := fp.DeadBeforeStage(g, j, 0)

	opts := ensio.OpenOptions{Retry: r.retry(), Hook: fp.EnsioHook(), Verify: !r.NoVerify}
	open := map[int]*ensio.MemberFile{} // member -> file
	myCodes := map[int]int{}
	if !deadFromStart {
		for _, k := range me.Members {
			mf, err := ensio.OpenMemberOpts(ensio.MemberPath(p.Dir, k), opts)
			if err != nil {
				myCodes[k] = classifyOpenError(err)
				continue
			}
			if err := mf.CheckGeometry(p.Cfg.Mesh.NX, p.Cfg.Mesh.NY, 1, k); err != nil {
				myCodes[k] = dropGeometry
				mf.Close()
				continue
			}
			open[k] = mf
		}
	}
	defer func() {
		reg := tr.Counters()
		for _, f := range open {
			if reg != nil {
				st := f.Stats()
				reg.Add("ensio.seeks", float64(st.Seeks))
				reg.Add("ensio.bytes", float64(st.BytesRead))
				reg.Add("ensio.reads", float64(st.Reads))
				reg.Add("ensio.retries", float64(st.Retries))
			}
			f.Close()
		}
	}()

	// Exactly one reader per group reports the group's codes — the first
	// reader alive at stage 0 (every rank derives the same choice from the
	// plan, so the sum is not multiplied by n_sdy).
	reporter := 0
	for jj := 0; jj < nsdy; jj++ {
		if !fp.DeadBeforeStage(g, jj, 0) {
			reporter = jj
			break
		}
	}
	codes := make([]float64, p.Cfg.N)
	if j == reporter {
		for k, code := range myCodes {
			codes[k] = float64(code)
		}
	}
	survivors, posOf, dropped, err := agreeMembership(c, p.Cfg.N, codes)
	if err != nil {
		return err
	}
	if len(survivors) < r.minMembers() {
		return fmt.Errorf("core: only %d of %d members readable (%d dropped) — need at least %d", len(survivors), p.Cfg.N, len(dropped), r.minMembers())
	}
	effN := len(survivors)

	// Group members in survivor order.
	var members []int
	for _, k := range me.Members {
		if _, ok := posOf[k]; ok {
			members = append(members, k)
		}
	}

	for l := 0; l < nStages; l++ {
		if fp.DeadBeforeStage(g, j, l) {
			if tr.Enabled() {
				tr.Instant(name, trace.CatFault, "rank-death", time.Since(t0).Seconds(),
					trace.Arg{Key: trace.ArgStage, Val: float64(l)})
			}
			tr.Counters().Inc("faults.rank.deaths")
			return nil
		}
		// Rows this reader serves: its own, plus dead rows whose cyclic
		// successor it is. Every live reader derives the identical
		// assignment from the plan.
		dead := func(jj int) bool { return fp.DeadBeforeStage(g, jj, l) }
		serve := []int{j}
		for jj := 0; jj < nsdy; jj++ {
			if jj == j || !dead(jj) {
				continue
			}
			if s, ok := faults.Successor(jj, nsdy, dead); ok && s == j {
				serve = append(serve, jj)
				if l == 0 || !fp.DeadBeforeStage(g, jj, l-1) {
					// First stage this row is adopted.
					tr.Counters().Inc("faults.failovers")
					if tr.Enabled() {
						tr.Instant(name, trace.CatFault, "failover", time.Since(t0).Seconds(),
							trace.Arg{Key: "row", Val: float64(jj)},
							trace.Arg{Key: trace.ArgStage, Val: float64(l)})
					}
				}
			}
		}
		for _, row := range serve {
			rowPlan := cp.IOAt(g, row)
			st := rowPlan.Stages[l]
			for _, k := range members {
				mf := open[k]
				if mf == nil {
					return fmt.Errorf("core: reader %s lost member %d agreed as a survivor", name, k)
				}
				readStart := time.Now()
				bar, err := mf.ReadBar(st.Read.Box.Y0, st.Read.Box.Y1)
				if err != nil {
					return fmt.Errorf("core: reader %s, member %d, stage %d: %w", name, k, l, err)
				}
				observe(p, name, metrics.PhaseRead, t0, readStart, time.Now(), -1)

				commStart := time.Now()
				for _, dst := range st.Comm.Dsts {
					box := cp.Compute[dst].Stages[l].Box
					payload := cutPayload(bar, st.Read.Box, box, p.Cfg.Mesh.NX)
					meta := []int{posOf[k], box.X0, box.X1, box.Y0, box.Y1}
					if err := c.Send(dst, plan.Tag(l, effN, 1, posOf[k], 0), meta, payload); err != nil {
						return err
					}
				}
				observe(p, name, metrics.PhaseComm, t0, commStart, time.Now(), -1)
			}
		}
	}
	return nil
}

// runComputeResilient is the hardened body of compute rank (i, j): the
// same helper-thread overlap as runCompute, over the survivor ensemble
// with the effective (reweighted) configuration.
func runComputeResilient(c *mpi.Comm, p Problem, cp *plan.Compiled, r Resilience, t0 time.Time) (*DegradedResult, error) {
	me := cp.Compute[c.Rank()]
	name := cp.Compute[c.Rank()].Name
	nStages := cp.Spec.L

	// Membership agreement: compute ranks contribute nothing but must
	// participate so every rank holds the identical survivor set.
	survivors, _, dropped, err := agreeMembership(c, p.Cfg.N, make([]float64, p.Cfg.N))
	if err != nil {
		return nil, err
	}
	if len(survivors) < r.minMembers() {
		return nil, fmt.Errorf("core: only %d of %d members readable (%d dropped) — need at least %d", len(survivors), p.Cfg.N, len(dropped), r.minMembers())
	}
	effN := len(survivors)
	effCfg := effectiveConfig(p.Cfg, effN)
	if c.Rank() == 0 && len(dropped) > 0 {
		tr := p.Tr
		for _, d := range dropped {
			tr.Counters().Inc("faults.members.dropped")
			if tr.Enabled() {
				tr.Instant(name, trace.CatFault, "member-dropped", time.Since(t0).Seconds(),
					trace.Arg{Key: "member", Val: float64(d.Member)})
			}
		}
	}

	type stageData struct {
		blk *enkf.Block
		err error
	}
	stages := make(chan stageData, nStages)
	go func() {
		for l := 0; l < nStages; l++ {
			exp := me.Stages[l].Box
			blk := enkf.NewBlock(exp, effN)
			for s := 0; s < effN; s++ {
				m, err := c.Recv(mpi.AnySource, plan.Tag(l, effN, 1, s, 0))
				if err != nil {
					stages <- stageData{err: err}
					return
				}
				box := grid.Box{X0: m.Meta[1], X1: m.Meta[2], Y0: m.Meta[3], Y1: m.Meta[4]}
				if box != exp {
					stages <- stageData{err: fmt.Errorf("core: stage %d survivor %d box %v, want %v", l, s, box, exp)}
					return
				}
				if len(m.Data) != exp.Points() {
					stages <- stageData{err: fmt.Errorf("core: stage %d survivor %d payload %d, want %d", l, s, len(m.Data), exp.Points())}
					return
				}
				blk.Data[m.Meta[0]] = m.Data
			}
			if p.Tr.Enabled() {
				p.Tr.Instant(name, trace.CatStage, "ready", time.Since(t0).Seconds(),
					trace.Arg{Key: trace.ArgStage, Val: float64(l)})
			}
			stages <- stageData{blk: blk}
		}
	}()

	result := enkf.NewBlock(me.Sub, effN)
	var ws enkf.Workspace
	for l := 0; l < nStages; l++ {
		waitStart := time.Now()
		sd := <-stages
		if sd.err != nil {
			return nil, sd.err
		}
		observe(p, name, metrics.PhaseWait, t0, waitStart, time.Now(), -1)

		layer := me.Stages[l].Analyze
		compStart := time.Now()
		if err := ws.AnalyzeInto(effCfg, result, sd.blk, p.Net.Obs, layer); err != nil {
			return nil, err
		}
		observe(p, name, metrics.PhaseCompute, t0, compStart, time.Now(), -1)
	}

	if c.Rank() != 0 {
		meta := []int{result.Box.X0, result.Box.X1, result.Box.Y0, result.Box.Y1}
		return nil, c.Send(0, resultTag, meta, flattenBlock(result))
	}
	blocks := []*enkf.Block{result}
	for rk := 1; rk < cp.NumCompute(); rk++ {
		m, err := c.Recv(mpi.AnySource, resultTag)
		if err != nil {
			return nil, err
		}
		box := grid.Box{X0: m.Meta[0], X1: m.Meta[1], Y0: m.Meta[2], Y1: m.Meta[3]}
		blk, err := unflattenBlock(box, effN, m.Data)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, blk)
	}
	fields, err := enkf.Assemble(p.Cfg.Mesh, effN, blocks)
	if err != nil {
		return nil, err
	}
	failovers := planFailovers(r.Faults, cp.Spec.Dec.NSdy)
	return &DegradedResult{
		Fields:          fields,
		Survivors:       survivors,
		Dropped:         dropped,
		Failovers:       failovers,
		EffectiveConfig: effCfg,
		Degraded:        len(dropped) > 0 || len(failovers) > 0,
	}, nil
}
