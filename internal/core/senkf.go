// Package core is the real-substrate engine: it interprets compiled plans
// (internal/plan) on the goroutine message-passing runtime (internal/mpi)
// against real member files (internal/ensio), numerically exact. The S-EnKF
// schedule it executes is the paper's contribution:
//
//   - Concurrent-group bar reading (§4.1): C1 = n_cg·n_sdy dedicated I/O
//     ranks organised into n_cg groups; the n_sdy ranks of a group read the
//     contiguous latitude bars of the group's N/n_cg member files (one
//     addressing operation per bar), while different groups read different
//     files simultaneously.
//   - Multi-stage computation (§4.2, Figures 7–8): every sub-domain is cut
//     into L latitude layers. At stage l the I/O ranks read the small bar
//     needed for layer l and send column blocks to the compute ranks; each
//     compute rank runs a helper thread (a real goroutine) that receives
//     and assembles stage data while the main thread analyses the previous
//     layer — file reading and communication genuinely overlap local
//     analysis.
//
// The same engine executes the baseline plans (see internal/baseline for
// the P-EnKF/L-EnKF entry points); RunSEnKF, RunSEnKFMultiLevel and
// RunSEnKFResilient are wrappers that compile the layout's spec and hand it
// over, the last together with a recovery policy the engine consults (see
// resilient.go). The result must equal the serial reference (and both
// baselines) exactly; integration tests assert the correctness triangle.
package core

import (
	"senkf/internal/grid"
	"senkf/internal/plan"
)

// Plan is the S-EnKF processor layout: the compute decomposition plus the
// multi-stage and concurrent-group parameters (the tuple Algorithm 2 tunes).
type Plan struct {
	Dec grid.Decomposition
	L   int // layers per sub-domain
	NCg int // concurrent I/O groups
}

// ComputeRanks returns C2 = n_sdx·n_sdy.
func (pl Plan) ComputeRanks() int { return pl.Dec.SubDomains() }

// IORanks returns C1 = n_cg·n_sdy.
func (pl Plan) IORanks() int { return pl.NCg * pl.Dec.NSdy }

// WorldSize returns the total rank count C1 + C2.
func (pl Plan) WorldSize() int { return pl.ComputeRanks() + pl.IORanks() }

// Validate checks the plan against the problem geometry.
func (pl Plan) Validate(n int) error { return pl.Spec(n).Validate() }

// Spec returns the declarative algorithm spec this layout describes.
func (pl Plan) Spec(n int) plan.Spec { return plan.SEnKF(pl.Dec, n, pl.L, pl.NCg) }

// Problem is the shared real-run problem type, declared in internal/plan.
type Problem = plan.Problem

// resultTag is the tag of the completion tokens: one per compute rank, sent to
// world rank 0 when the rank's sub-domain of the result is written, far above
// the plan.Tag stage-tag space.
const resultTag = 1 << 20

// RunSEnKF executes the full S-EnKF schedule and returns the analysis
// ensemble.
func RunSEnKF(p Problem, pl Plan) ([][]float64, error) {
	c, err := plan.Compile(pl.Spec(p.Cfg.N))
	if err != nil {
		return nil, err
	}
	return ExecutePlan(p, c)
}
