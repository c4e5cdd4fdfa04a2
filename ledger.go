// Run-ledger facade: the persistent run archive, the shared observability
// flags and the run session of internal/runlog, and the hot-stage
// attribution of internal/runtimeobs, for the binaries. Every invocation
// mints a run ID; with -archive it lands a self-describing, content-
// addressed record (manifest, counters, trace, monitor state, per-cycle
// series, whole-run CPU profile) that senkf-report can list, diff (the
// run report is derived from the trace on read) and attribute hot stages
// over.

package senkf

import (
	"flag"
	"io"

	"senkf/internal/runlog"
	"senkf/internal/runtimeobs"
)

type (
	// RunFlags is one binary's registered observability flag set; call
	// Start after flag parsing to obtain the RunSession.
	RunFlags = runlog.Flags
	// RunSession is one invocation's observability context: run ID,
	// structured logger, counter registry, tracer, monitor and archive.
	RunSession = runlog.Session
	// CycleSample is one assimilation cycle's outcome as published to the
	// session's per-cycle series (RunSession.RecordCycle).
	CycleSample = runlog.CycleSample
	// RunArchive is the content-addressed run ledger on disk.
	RunArchive = runlog.Archive
	// RunFilter selects archived runs for list queries.
	RunFilter = runlog.Filter
	// RunSummary is one archived run's list row.
	RunSummary = runlog.Summary
	// HotStageAttribution ranks per-{class, stage} CPU self-time from a
	// labeled profile against trace busy time.
	HotStageAttribution = runtimeobs.Attribution
)

// Attached-file names inside an archived run directory, for a record's
// ReadFile / Has: the two halves of a hot-stage attribution.
const (
	RunTraceFile      = runlog.TraceFile
	RunCPUProfileFile = runlog.CPUProfileFile
)

// AttributeHotStages parses a raw labeled CPU profile (pprof bytes) and
// merges it onto the run's trace events: per-{class, stage} CPU
// self-time ranked against trace busy time. It is the one attribution
// path (senkf-report hotspots); the archive keeps only its two inputs.
func AttributeHotStages(profile []byte, events []TraceEvent) (*HotStageAttribution, error) {
	p, err := runtimeobs.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	return runtimeobs.Attribute(p, events)
}

// ProfileStageLabels returns the sorted distinct plan-stage labels
// present in a raw CPU profile — the smoke check that label propagation
// covered every plan stage.
func ProfileStageLabels(profile []byte) ([]int, error) {
	p, err := runtimeobs.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	return runtimeobs.ProfileStages(p), nil
}

// RegisterRunFlags installs the full observability flag set (-trace,
// -counters, -profile, -monitor, -flight-recorder,
// -linger, -runtime-sample, -capture-profile, -archive, -log-level) for
// the named binary.
func RegisterRunFlags(fs *flag.FlagSet, binary string) *RunFlags {
	return runlog.Register(fs, binary)
}

// RegisterBasicRunFlags installs the subset every binary carries:
// -profile, -archive and -log-level.
func RegisterBasicRunFlags(fs *flag.FlagSet, binary string) *RunFlags {
	return runlog.RegisterBasic(fs, binary)
}

// OpenRunArchive opens (creating if needed) the run ledger at dir.
func OpenRunArchive(dir string) (*RunArchive, error) { return runlog.Open(dir) }

// WriteRunListTable renders archived-run list rows as an aligned table.
func WriteRunListTable(w io.Writer, rows []RunSummary) error {
	return runlog.WriteListTable(w, rows)
}
