// Resilience is a policy, not a second engine: RunSEnKFResilient runs the
// compiled S-EnKF plan through the interpreter of engine.go and hands it a
// recovery value the loop consults at four seams — how member files are
// opened and what a failure there means, which members the run assimilates,
// which bar rows an I/O rank serves at a stage, and what a compute stage
// expects and analyses with. Everything else is the engine's.
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
	"slices"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/mpi"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// Resilience configures the hardened run. Under it every member file is
// opened with DefaultRetryBudget attempts and its payload checksum verified —
// what turns silent corruption into a clean member drop — and the run aborts
// when fewer than two members survive.
type Resilience struct {
	// Faults is the injected fault plan (nil runs the hardened schedule on
	// a healthy system; the recovery machinery then only verifies).
	Faults *faults.Plan
}

// minMembers is the smallest ensemble a run analyses.
const minMembers = 2

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

// classifyOpenError maps an openMember failure to a drop-reason code.
func classifyOpenError(err error) float64 {
	var ce *ensio.CorruptionError
	var ge geometryError
	switch {
	case errors.Is(err, os.ErrNotExist):
		return dropMissing
	case errors.As(err, &ce):
		return dropCorrupt
	case errors.Is(err, ensio.ErrTruncated):
		return dropTruncated
	case errors.As(err, &ge):
		return dropGeometry
	}
	return dropIO
}

// RunSEnKFResilient executes the S-EnKF schedule under the recovery policy r
// describes. Unreadable members are dropped (not fatal) down to two;
// plan-declared reader deaths fail over to the group's surviving readers.
func RunSEnKFResilient(p Problem, pl Plan, r Resilience) (*DegradedResult, error) {
	c, err := plan.Compile(pl.Spec(p.Cfg.N))
	if err != nil {
		return nil, err
	}
	if err := r.Faults.Validate(pl.NCg, pl.Dec.NSdy, pl.L, p.Cfg.N, 0); err != nil {
		return nil, err
	}
	if r.Faults != nil {
		for _, d := range r.Faults.Deaths {
			if d.At > 0 {
				return nil, fmt.Errorf("core: time-based rank death (At=%g) is simulation-only; use BeforeStage for real runs", d.At)
			}
		}
	}
	rc := &recovery{Resilience: r}
	fields, err := execute(p, c, rc)
	if err != nil {
		return nil, err
	}
	m := rc.agreed
	failovers := planFailovers(r.Faults, pl.Dec.NSdy)
	return &DegradedResult{
		Fields:          fields[0],
		Survivors:       m.survivors,
		Dropped:         m.dropped,
		Failovers:       failovers,
		EffectiveConfig: m.cfg,
		Degraded:        len(m.dropped) > 0 || len(failovers) > 0,
	}, nil
}

// membership is the member set a run assimilates and the configuration it
// analyses them with. Nil is the identity, all the plain engine ever sees.
type membership struct {
	cfg       enkf.Config
	survivors []int // assimilated members, ascending
	posOf     []int // member → survivor position, −1 when dropped
	dropped   []DroppedMember
}

// pos returns member k's survivor position, negative when k was dropped.
func (m *membership) pos(k int) int {
	if m == nil {
		return k
	}
	return m.posOf[k]
}

// recovery is the policy the interpreter consults. The nil policy answers
// without communicating or allocating: default open options, identity
// membership, own row only, nobody dead.
type recovery struct {
	Resilience
	agreed *membership // what world rank 0 agreed on, for the DegradedResult
}

// faultPlan returns the policy's fault plan, nil without a policy.
func (rc *recovery) faultPlan() *faults.Plan {
	if rc == nil {
		return nil
	}
	return rc.Faults
}

// openOptions is seam 1: how member files are opened.
func (rc *recovery) openOptions() ensio.OpenOptions {
	if rc == nil {
		return ensio.OpenOptions{}
	}
	return ensio.OpenOptions{Attempts: faults.DefaultRetryBudget, Hook: rc.Faults.EnsioHook(), Verify: true}
}

// reportCodes returns the drop-code vector I/O rank r fills at the open seam:
// nil unless r is the first reader of its group alive at stage 0, so exactly
// one reader per group reports and the agreed sum is not multiplied by n_sdy.
func (rc *recovery) reportCodes(c *plan.Compiled, r plan.IORank) []float64 {
	if rc == nil || rc.Faults.DeadAt(r.Group, r.Row, 0, 0) {
		return nil
	}
	for j := 0; j < r.Row; j++ {
		if !rc.Faults.DeadAt(r.Group, j, 0, 0) {
			return nil
		}
	}
	return make([]float64, c.Spec.N)
}

// agree is seam 2: the members the run assimilates and the configuration it
// analyses them with. Every rank contributes a drop-code vector (nil for all
// zeros; only the reporter of each I/O group has one) and, the agreement being
// world-wide, holds the same answer without further communication.
func (rc *recovery) agree(comm *mpi.Comm, p plan.Problem, c *plan.Compiled, t0 time.Time, codes []float64) (*membership, enkf.Config, error) {
	if rc == nil {
		return nil, p.Cfg, nil
	}
	if codes == nil {
		codes = make([]float64, p.Cfg.N)
	}
	m, err := agreeMembership(comm, codes)
	if err != nil {
		return nil, p.Cfg, err
	}
	if len(m.survivors) < minMembers {
		return nil, p.Cfg, fmt.Errorf("core: only %d of %d members readable (%d dropped) — need at least %d", len(m.survivors), p.Cfg.N, len(m.dropped), minMembers)
	}
	m.cfg = effectiveConfig(p.Cfg, len(m.survivors))
	if comm.Rank() == 0 {
		rc.agreed = m
		for _, d := range m.dropped {
			p.Tr.Counters().Inc("faults.members.dropped")
			p.Tr.Instant(c.Compute[0].Name, trace.CatFault, "member-dropped", time.Since(t0).Seconds(),
				trace.Arg{Key: "member", Val: float64(d.Member)})
		}
	}
	return m, m.cfg, nil
}

// agreeMembership is the world-wide failure-detection barrier: the ranks'
// drop-code vectors are summed by one Allreduce, and every rank derives the
// survivors and their positions from the identical sum.
func agreeMembership(comm *mpi.Comm, codes []float64) (*membership, error) {
	agreed, err := comm.AllreduceSum(codes)
	if err != nil {
		return nil, err
	}
	m := &membership{posOf: make([]int, len(agreed))}
	for k, code := range agreed {
		if code != 0 {
			m.dropped = append(m.dropped, DroppedMember{Member: k, Reason: dropReason(int(code))})
			m.posOf[k] = -1
			continue
		}
		m.posOf[k] = len(m.survivors)
		m.survivors = append(m.survivors, k)
	}
	return m, nil
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

// planFailovers derives the result's failover records from the fault plan:
// each death's row goes to the reader that takes it over at that stage.
func planFailovers(fp *faults.Plan, nsdy int) []Failover {
	if fp == nil {
		return nil
	}
	var out []Failover
	for _, d := range fp.Deaths {
		for to := 0; to < nsdy; to++ {
			if _, fresh, _ := fp.Failover(d.Group, to, nsdy, d.BeforeStage, 0, 0); slices.Contains(fresh, d.Reader) {
				out = append(out, Failover{Group: d.Group, FromReader: d.Reader, ToReader: to, Stage: d.BeforeStage})
			}
		}
	}
	return out
}
