// Recovery is a policy, not a second walk, consulted by the io body at the
// seams core's resilient.go marks: the members a run drops and their retry
// probes, the rows a reader adopts or the stage it dies before, what a send
// carries. The failover decision and its record are core's too
// (plan.Compiled.Failover); what differs by design is named in DESIGN ch. 9.
// The nil policy — the baselines, the ablations, a healthy machine — drops
// nothing, adopts nothing, kills nobody.

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
		return faults.DefaultRetryBudget
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

// adopt returns the dead rows of me's group that me serves at stage l
// besides its own, and whether me itself is alive: the failover decision both
// substrates take, recorded by plan's Failover, under the death predicate
// asked at the group-agreed stage-top times — where time-based deaths, which
// only the simulator has, trigger.
func (rc *recovery) adopt(proc *sim.Proc, cp *plan.Compiled, me *plan.IORank, l int, tStage, tPrev float64) (rows []int, alive bool) {
	if rc == nil {
		return nil, true
	}
	rows, fresh, alive := cp.Failover(rc.tr, rc.pl, me, l, proc.Now(), tStage, tPrev)
	if !alive {
		rc.deaths++
	}
	rc.failovers += fresh
	return rows, alive
}
