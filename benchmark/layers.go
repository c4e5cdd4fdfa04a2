package main

import (
	"fmt"

	"senkf/internal/core"
	"senkf/internal/plan"
	"senkf/internal/wire"
)

// spanMetrics maps the name of a harness span to the per-layer metric that
// reports its summed duration per traced op.
var spanMetrics = map[string]string{
	"core.read":          "core.read_s",
	"core.comm":          "core.comm_s",
	"core.compute":       "core.compute_s",
	"core.wait":          "core.wait_s",
	"cycle.forecast":     "cycle.forecast_s",
	"ensio.write":        "cycle.write_s",
	"core.penkf":         "cycle.analysis_s",
	"ckpt.write":         "cycle.ckpt_s",
	"costmodel.autotune": "simcell.autotune_s",
	"schedule.senkf":     "simcell.senkf_sim_s",
	"schedule.penkf":     "simcell.penkf_sim_s",
}

// foldSpans turns the spans of the traced ops into per-op layer metrics.
func foldSpans(spans []span, ops int, values map[string]float64) {
	if ops == 0 {
		return
	}
	dur, self := spanTotals(spans)
	n := float64(ops)
	for name, metric := range spanMetrics {
		values[metric] = dur[name] / n
	}
	values["bench.op_self_s"] = self["op"] / n
	busy := dur["core.read"] + dur["core.comm"] + dur["core.compute"] + dur["core.wait"]
	if busy > 0 {
		values["core.compute_share"] = dur["core.compute"] / busy
	}
}

// tracedLayerMetrics adds what the spans do not carry: for the workloads
// whose op is one engine run, the events the engine emitted per op and the
// messages and bytes it put on the wire. The wire numbers are the compiled
// plan's expectation, accepted only when one more op, watched through the
// program's own Problem.Msgs observer, carried exactly that edge matrix.
func tracedLayerMetrics(w workload, ops int, values map[string]float64) error {
	rw, ok := w.(*realWorkload)
	if !ok || ops == 0 {
		return nil
	}
	values["trace.events_per_op"] = float64(rw.events) / float64(ops)
	want := plan.ExpectedEdges(rw.compiled)
	seen := wire.NewCollector()
	prob := rw.prob
	prob.Msgs = seen
	if _, err := core.ExecutePlanLevels(prob, rw.compiled); err != nil {
		return fmt.Errorf("watched op: %w", err)
	}
	if err := want.Diff(seen.Matrix()); err != nil {
		return fmt.Errorf("wire traffic differs from the plan's expected edges: %w", err)
	}
	tot := want.Totals()
	values["core.messages_per_op"] = float64(tot.Msgs)
	values["core.msg_mb_per_op"] = float64(tot.Bytes) / 1e6
	return nil
}
