// Wire-telemetry facade: the per-edge communication accounting and
// per-OST read attribution of internal/wire and internal/plan's expected
// edge matrix, re-exported for the binaries and external users. A
// WireCollector observes every delivered message (real mpi runtime or
// simulated mailboxes) and every parallel-file-system read, folds them
// into an edge matrix keyed by (src, dst, stage, level), and reduces to
// the wire.json summary the run ledger archives; ExpectedEdges derives
// the same matrix from a compiled plan alone, so real, simulated and
// expected traffic are directly comparable. The collector is the one
// place traffic is counted: a monitor handed it (MonitorOptions.Wire)
// judges each run's share against ExpectedEdges and reports it as
// MonitorWireStatus.

package senkf

import (
	"encoding/json"

	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/runlog"
	"senkf/internal/wire"
)

type (
	// EdgeKey identifies one communication edge of a run: (src, dst,
	// stage, level).
	EdgeKey = plan.EdgeKey
	// EdgeStats is the accumulated traffic of one edge.
	EdgeStats = plan.EdgeStats
	// EdgeMatrix maps edges to their accumulated traffic.
	EdgeMatrix = plan.EdgeMatrix
	// WireCollector folds per-message and per-read observations into the
	// edge matrix and OST attribution; it implements Problem.Msgs /
	// Machine.Msgs and Machine.Reads.
	WireCollector = wire.Collector
	// WireSummary is the archived wire-telemetry picture of one run
	// (wire.json): totals, top edges, skew, per-OST timelines.
	WireSummary = wire.Summary
	// WireEdgeLine is one edge of a wire summary, heaviest first.
	WireEdgeLine = wire.EdgeLine
	// WireOSTLine is one storage target's attribution in a wire summary.
	WireOSTLine = wire.OSTLine
	// MonitorWireStatus is the monitor's live wire-conformance state
	// (Status.Wire): actual vs expected edges, missing/short/unexpected
	// counts, per-OST peaks.
	MonitorWireStatus = monitor.WireStatus
)

// RunWireFile is the wire-telemetry summary attached to an archived run
// (-wire with -archive), for RunRecord.ReadFile / Has.
const RunWireFile = runlog.WireFile

// NewWireCollector returns an empty wire collector.
func NewWireCollector() *WireCollector { return wire.NewCollector() }

// ExpectedEdges derives the expected edge matrix — stage-data bytes and
// message counts per (src, dst, stage, level) — from a compiled plan
// alone, byte-sized by the real transport's message formula.
func ExpectedEdges(c *CompiledPlan) EdgeMatrix { return plan.ExpectedEdges(c) }

// StageMsgBytes returns the on-wire size of one stage-data message to
// compute rank dst at the given stage — the 5-int header plus the stage
// box payload, matching the real runtime's encoding.
func StageMsgBytes(c *CompiledPlan, dst, stage int) int64 {
	return plan.StageMsgBytes(c, dst, stage)
}

// ParseWireSummary decodes an archived wire.json (RunWireFile) back into
// a summary for rendering or comparison.
func ParseWireSummary(data []byte) (*WireSummary, error) {
	var s WireSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
