// Wire-telemetry facade: the archived wire.json summary of internal/wire,
// re-exported for senkf-report. A run with -wire folds every delivered
// message and parallel-file-system read into an edge matrix keyed by
// (src, dst, stage, level) and archives its summary under RunWireFile.

package senkf

import (
	"encoding/json"

	"senkf/internal/runlog"
	"senkf/internal/wire"
)

// WireSummary is the archived wire-telemetry picture of one run
// (wire.json): totals, top edges, skew, per-OST timelines.
type WireSummary = wire.Summary

// RunWireFile is the wire-telemetry summary attached to an archived run
// (-wire with -archive), for an archived record's ReadFile / Has.
const RunWireFile = runlog.WireFile

// ParseWireSummary decodes an archived wire.json (RunWireFile) back into
// a summary for rendering or comparison.
func ParseWireSummary(data []byte) (*WireSummary, error) {
	var s WireSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
