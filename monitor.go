// Live-monitoring facade: what the binaries need of internal/monitor and
// internal/faults beyond a run session — the per-cycle sample a cycled
// run publishes to its monitor, and the injected-straggler flag.

package senkf

import (
	"senkf/internal/faults"
	"senkf/internal/monitor"
)

type (
	// CycleSample is one assimilation cycle's outcome as published to the
	// monitor's per-cycle series.
	CycleSample = monitor.CycleSample
	// Straggler names one processor slowed by an injected factor.
	Straggler = faults.Straggler
)

// ParseStraggler parses a "proc:factor" specification (e.g. "io/g0/r0:30")
// into an injected straggler.
func ParseStraggler(spec string) (Straggler, error) { return faults.ParseStraggler(spec) }
