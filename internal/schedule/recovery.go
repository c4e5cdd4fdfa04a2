// Recovery is a policy, not a second walk — the simulated mirror of core's
// resilient.go, consulted by the io body at the seams core marks: the members
// a run drops and their retry probes, the rows a reader adopts or the stage
// it dies before, what a send carries. The nil policy — the baselines, the
// ablations, a healthy machine — drops nothing, adopts nothing, kills nobody.

package schedule

import (
	"slices"

	"senkf/internal/faults"
	"senkf/internal/plan"
	"senkf/internal/sim"
	"senkf/internal/trace"
)

// recovery is one run's policy and its fault outcomes, shared by every
// process of the (single-threaded) simulation.
type recovery struct {
	pl *faults.Plan
	tr *trace.Tracer

	dropped           []int // members announced as dropped, in that order
	failovers, deaths int
}

// drops reports whether member k is unrecoverable and excluded from the run.
func (rc *recovery) drops(k int) bool { return rc != nil && rc.pl.Drops(k) }

// probes returns the retry probes member k's file fault costs a reader — the
// whole budget for an unrecoverable member. The probes are paid every stage,
// where core pays them once at open.
func (rc *recovery) probes(k int) int {
	if rc == nil {
		return 0
	}
	ff, ok := rc.pl.FaultFor(k)
	switch {
	case !ok:
		return 0
	case rc.pl.Drops(k):
		return rc.pl.Budget()
	}
	return ff.Count
}

// drop announces unrecoverable member k, the first time a reader's probes of
// it end.
func (rc *recovery) drop(proc *sim.Proc, k int) {
	if slices.Contains(rc.dropped, k) {
		return
	}
	rc.dropped = append(rc.dropped, k)
	rc.tr.Counters().Inc("faults.members.dropped")
	rc.tr.Instant(proc.Name, trace.CatFault, "member-dropped", proc.Now(),
		trace.Arg{Key: "member", Val: float64(k)})
}

// adopt returns the dead rows of me's group of n readers that me serves at
// stage l besides its own — faults.Adopt's assignment, as in core, but under
// the predicate that also honours time-based deaths, evaluated at the
// group-agreed stage-top times — and whether me itself is alive.
func (rc *recovery) adopt(proc *sim.Proc, me *plan.IORank, n, l int, tStage, tPrev float64) (rows []int, alive bool) {
	if rc == nil {
		return nil, true
	}
	rows, fresh, alive := faults.Adopt(me.Row, n, l, func(row, stage int) bool {
		if stage < l {
			return rc.pl.DeadAt(me.Group, row, stage, tPrev)
		}
		return rc.pl.DeadAt(me.Group, row, stage, tStage)
	})
	if !alive {
		rc.deaths++
		rc.tr.Counters().Inc("faults.rank.deaths")
		rc.tr.Instant(proc.Name, trace.CatFault, "rank-death", proc.Now(),
			trace.Arg{Key: trace.ArgStage, Val: float64(l)})
		return nil, false
	}
	for _, row := range fresh {
		rc.failovers++
		rc.tr.Counters().Inc("faults.failovers")
		rc.tr.Instant(proc.Name, trace.CatFault, "failover", proc.Now(),
			trace.Arg{Key: "row", Val: float64(row)}, trace.Arg{Key: trace.ArgStage, Val: float64(l)})
	}
	return rows, true
}
