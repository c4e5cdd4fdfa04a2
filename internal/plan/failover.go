package plan

import (
	"senkf/internal/faults"
	"senkf/internal/trace"
)

// Failover is the rows-served seam of both interpreters: fp's failover
// decision for I/O rank r at stage l (faults.Plan.Failover, asked at the
// group's stage-top virtual times tStage and tPrev), recorded once, on r's
// track at time now — a "rank-death" instant and faults.rank.deaths count
// when r is dead before l, a "failover" instant and faults.failovers count
// per dead row it takes over at l. It returns the dead rows r serves at l
// besides its own, how many of them it took over at l, and whether r is
// alive. A nil fp kills nobody and records nothing.
//
// Three differences between the substrates' recovery stay by design
// (DESIGN ch. 9): time-based deaths exist only in the simulator, whose
// stage-top times are virtual, while the real engine passes zeros; the
// simulator charges a faulted member's retry probes every stage, while core
// pays them once, at open; and the real engine announces member-dropped on
// compute rank 0, the simulator on the reader.
func (c *Compiled) Failover(tr *trace.Tracer, fp *faults.Plan, r *IORank, l int, now, tStage, tPrev float64) (rows []int, fresh int, alive bool) {
	if fp == nil {
		return nil, 0, true
	}
	rows, took, alive := fp.Failover(r.Group, r.Row, c.Spec.Dec.NSdy, l, tStage, tPrev)
	if !alive {
		tr.Counters().Inc("faults.rank.deaths")
		tr.Instant(r.Name, trace.CatFault, "rank-death", now,
			trace.Arg{Key: trace.ArgStage, Val: float64(l)})
		return nil, 0, false
	}
	for _, row := range took {
		tr.Counters().Inc("faults.failovers")
		tr.Instant(r.Name, trace.CatFault, "failover", now,
			trace.Arg{Key: "row", Val: float64(row)}, trace.Arg{Key: trace.ArgStage, Val: float64(l)})
	}
	return rows, len(took), true
}

// AnnounceStragglers is the straggler seam of both interpreters: one
// "straggler" instant per injected straggler, at time 0 on its track, and a
// faults.stragglers count each, recorded before any rank starts so a live
// monitor can tell injected slowdowns from organic ones. A nil fp announces
// nothing.
func AnnounceStragglers(tr *trace.Tracer, fp *faults.Plan) {
	if fp == nil {
		return
	}
	for _, s := range fp.Stragglers {
		tr.Counters().Inc("faults.stragglers")
		tr.Instant(s.Proc, trace.CatFault, "straggler", 0, trace.Arg{Key: "factor", Val: s.Factor})
	}
}
