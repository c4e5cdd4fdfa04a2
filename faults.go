// Fault-injection facade: what the binaries need of internal/faults beyond
// a run session — the injected-straggler flag.

package senkf

import "senkf/internal/faults"

// Straggler names one processor slowed by an injected factor.
type Straggler = faults.Straggler

// ParseStraggler parses a "proc:factor" specification (e.g. "io/g0/r0:30")
// into an injected straggler.
func ParseStraggler(spec string) (Straggler, error) { return faults.ParseStraggler(spec) }
