package senkf

import (
	"senkf/internal/cycle"
	"senkf/internal/enkf"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/obs"
)

// Sequential assimilation types.
type (
	// ForwardModel is the numerical model integrated between analyses: a
	// 2-D advection–diffusion equation on the doubly periodic mesh,
	// standing in for the paper's ocean model.
	ForwardModel = model.AdvectionDiffusion
	// CycleConfig drives a cycled (sequential) assimilation experiment.
	CycleConfig = cycle.Config
	// CycleStats records one forecast–analysis cycle's outcome.
	CycleStats = cycle.Stats
	// Analyzer computes an analysis ensemble from a background ensemble
	// and an observation network.
	Analyzer = cycle.Analyzer
)

// NewForwardModel validates the advection–diffusion parameters against the
// scheme's stability conditions and returns the model.
func NewForwardModel(m Mesh, cx, cy, nu, dt float64) (*ForwardModel, error) {
	return model.New(m, cx, cy, nu, dt)
}

// RunCycles performs sequential data assimilation: `cycles` rounds of
// model forecast (truth, ensemble, and a free-running control), observation
// of the evolving truth, and analysis through the given Analyzer.
func RunCycles(c CycleConfig, truth []float64, ensemble [][]float64, cycles int, analyze Analyzer) ([]CycleStats, error) {
	return cycle.Run(c, truth, ensemble, cycles, analyze)
}

// SerialAnalyzer analyses with the serial reference implementation.
func SerialAnalyzer() Analyzer { return cycle.SerialAnalyzer() }

// SEnKFAnalyzer analyses each cycle with the real parallel S-EnKF: the
// background ensemble is written to tpl.Dir as member files (as an
// operational system would between model run and assimilation) and
// assimilated by C1 + C2 goroutine ranks. tpl is the template of every
// cycle's problem — its hooks (Tr, Obs, Msgs, Faults, Prof) ride into each
// run; Cfg and Net are filled per cycle.
func SEnKFAnalyzer(tpl Problem, plan Plan) Analyzer { return cycle.SEnKFAnalyzer(tpl, plan) }

// PEnKFAnalyzer is SEnKFAnalyzer for the block-reading baseline.
func PEnKFAnalyzer(tpl Problem, dec Decomposition) Analyzer { return cycle.PEnKFAnalyzer(tpl, dec) }

// compile-time coherence between facade aliases and internals.
var (
	_          = func(c CycleConfig) enkf.Config { return c.Enkf }
	_          = func(c CycleConfig) grid.Mesh { return c.Enkf.Mesh }
	_ Analyzer = func(enkf.Config, [][]float64, *obs.Network) ([][]float64, error) { return nil, nil }
)
