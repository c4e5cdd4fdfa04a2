// Package cycle implements sequential data assimilation: the
// forecast–analysis loop in which an ensemble of model states is integrated
// forward in time ("utilizes ensemble integrations to predict the error
// statistics forward in time", §1), observations of the evolving truth are
// assimilated, and the updated ensemble seeds the next forecast. Every
// cycle can run the analysis through any of the implementations — the
// serial reference, or the real parallel S-EnKF/P-EnKF paths via member
// files on disk, exactly as an operational system would between model runs.
package cycle

import (
	"fmt"
	"math"
	"runtime"

	"senkf/internal/baseline"
	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/model"
	"senkf/internal/obs"
	"senkf/internal/par"
	"senkf/internal/runtimeobs"
	"senkf/internal/workload"
)

// Analyzer turns a background ensemble and an observation network into an
// analysis ensemble under the given configuration.
type Analyzer func(cfg enkf.Config, background [][]float64, net *obs.Network) ([][]float64, error)

// Config drives a cycled experiment.
type Config struct {
	Enkf  enkf.Config
	Model *model.AdvectionDiffusion
	// StepsPerCycle is the number of model steps between analyses.
	StepsPerCycle int
	// Observation network geometry, regenerated from the evolving truth
	// each cycle.
	ObsStrideX, ObsStrideY int
	ObsVar                 float64
	// ModelErrorSD, when positive, adds independent Gaussian noise of this
	// standard deviation to every ensemble member after each forecast —
	// stochastic model error. The truth trajectory is not perturbed, so
	// the ensemble's model is imperfect, as in any real system; without
	// it a perfect deterministic model lets the filter converge below the
	// observation floor and the cycling becomes trivial.
	ModelErrorSD float64
	// Seed derives per-cycle observation noise, perturbation streams and
	// model-error realizations.
	Seed uint64
	// Prof, when non-nil, runs the cycle loop under pprof labels
	// {proc: "cycle", stage: <cycle index>}, so CPU profiles separate
	// forecast/observation overhead from the analysis ranks (which label
	// themselves through the template problem's own Prof). Nil disables
	// labeling.
	Prof *runtimeobs.LabelSet
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Enkf.Validate(); err != nil {
		return err
	}
	if c.Model == nil {
		return fmt.Errorf("cycle: nil model")
	}
	if c.Model.Mesh != c.Enkf.Mesh {
		return fmt.Errorf("cycle: model mesh %v differs from assimilation mesh %v", c.Model.Mesh, c.Enkf.Mesh)
	}
	if c.StepsPerCycle <= 0 {
		return fmt.Errorf("cycle: steps per cycle must be positive, got %d", c.StepsPerCycle)
	}
	if c.ObsStrideX <= 0 || c.ObsStrideY <= 0 {
		return fmt.Errorf("cycle: observation strides must be positive")
	}
	if c.ObsVar <= 0 {
		return fmt.Errorf("cycle: observation variance must be positive, got %g", c.ObsVar)
	}
	if c.ModelErrorSD < 0 {
		return fmt.Errorf("cycle: negative model error %g", c.ModelErrorSD)
	}
	return nil
}

// cycleSeed derives an independent seed for cycle i.
func (c Config) cycleSeed(i int) uint64 {
	return c.Seed + 0x9E3779B97F4A7C15*uint64(i+1)
}

// Stats records one cycle's outcome.
type Stats struct {
	Cycle          int
	BackgroundRMSE float64 // forecast ensemble mean vs truth, before analysis
	AnalysisRMSE   float64 // analysis ensemble mean vs truth
	FreeRMSE       float64 // no-assimilation control ensemble mean vs truth
	Spread         float64 // mean ensemble standard deviation after analysis
}

// spread returns the mean point-wise ensemble standard deviation.
func spread(fields [][]float64) float64 {
	if len(fields) < 2 {
		return 0
	}
	n := len(fields)
	pts := len(fields[0])
	var total float64
	for i := 0; i < pts; i++ {
		var mean float64
		for k := 0; k < n; k++ {
			mean += fields[k][i]
		}
		mean /= float64(n)
		var v float64
		for k := 0; k < n; k++ {
			d := fields[k][i] - mean
			v += d * d
		}
		total += math.Sqrt(v / float64(n-1))
	}
	return total / float64(pts)
}

// State is the complete between-cycles state of a cycled experiment: with
// the Config it determines every remaining cycle exactly (all per-cycle
// randomness is keyed by Config.Seed and the cycle index), so persisting a
// State and resuming from it reproduces the uninterrupted run bit for bit.
type State struct {
	// NextCycle is the index of the first cycle still to run.
	NextCycle int
	Truth     []float64
	Ensemble  [][]float64
	// Free is the no-assimilation control ensemble; nil means "start a
	// fresh control as a copy of Ensemble" (the cycle-0 convention).
	Free    [][]float64
	History []Stats
}

// Hook observes the state after each completed cycle — the checkpoint
// cut-point. The State's slices are live; the hook must not mutate them. A
// non-nil error aborts the run (so tests can simulate a crash at an exact
// cycle boundary).
type Hook func(State) error

// Run performs the given number of forecast–analysis cycles starting from
// truth0 and ensemble0, and returns per-cycle statistics. A free-running
// copy of the ensemble (never assimilating) is propagated alongside as the
// control experiment.
func Run(c Config, truth0 []float64, ensemble0 [][]float64, cycles int, analyze Analyzer) ([]Stats, error) {
	return RunFrom(c, State{Truth: truth0, Ensemble: ensemble0}, cycles, analyze, nil, nil)
}

// RunFrom continues a cycled experiment from st until totalCycles cycles
// have completed (totalCycles counts from the experiment's origin, not from
// the resume point). The input state is never mutated. hook (may be nil)
// fires after each cycle with the post-analysis state.
func RunFrom(c Config, st State, totalCycles int, analyze Analyzer, onCycle func(Stats), hook Hook) ([]Stats, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if totalCycles <= 0 {
		return nil, fmt.Errorf("cycle: cycle count must be positive, got %d", totalCycles)
	}
	if analyze == nil {
		return nil, fmt.Errorf("cycle: nil analyzer")
	}
	if st.NextCycle < 0 || st.NextCycle >= totalCycles {
		return nil, fmt.Errorf("cycle: resume cycle %d outside [0,%d)", st.NextCycle, totalCycles)
	}
	if len(st.Ensemble) != c.Enkf.N {
		return nil, fmt.Errorf("cycle: ensemble has %d members, config says %d", len(st.Ensemble), c.Enkf.N)
	}
	if st.Free != nil && len(st.Free) != len(st.Ensemble) {
		return nil, fmt.Errorf("cycle: control ensemble has %d members, assimilating has %d", len(st.Free), len(st.Ensemble))
	}
	// The first forecast reads the input state and returns fresh fields, and
	// nothing before it writes, so the input is read in place, not copied.
	truth, ensemble, free := st.Truth, st.Ensemble, st.Free
	if free == nil {
		free = st.Ensemble
	}

	history := append([]Stats(nil), st.History...)
	scratch := make([][]float64, runtime.GOMAXPROCS(0)) // the forecast workers', made on first use
	sc := c.Prof.Scope("cycle")
	for i := st.NextCycle; i < totalCycles; i++ {
		i := i
		err := sc.Stage(i, func() error {
			var err error
			truth, ensemble, free, err = c.forecast(scratch, i, truth, ensemble, free)
			if err != nil {
				return fmt.Errorf("cycle %d: %w", i, err)
			}

			// Observe the current truth.
			seed := c.cycleSeed(i)
			net, err := obs.StridedNetwork(c.Enkf.Mesh, truth, c.ObsStrideX, c.ObsStrideY, c.ObsVar, seed)
			if err != nil {
				return fmt.Errorf("cycle %d: observations: %w", i, err)
			}

			// Analysis with cycle-specific perturbation seed.
			cfg := c.Enkf
			cfg.Seed = seed
			st := Stats{Cycle: i, BackgroundRMSE: meanRMSE(ensemble, truth), FreeRMSE: meanRMSE(free, truth)}
			ensemble, err = analyze(cfg, ensemble, net)
			if err != nil {
				return fmt.Errorf("cycle %d: analysis: %w", i, err)
			}
			st.AnalysisRMSE = meanRMSE(ensemble, truth)
			st.Spread = spread(ensemble)
			history = append(history, st)
			if onCycle != nil {
				onCycle(st)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if hook != nil {
			if err := hook(State{NextCycle: i + 1, Truth: truth, Ensemble: ensemble, Free: free, History: history}); err != nil {
				return history, fmt.Errorf("cycle %d: hook: %w", i, err)
			}
		}
	}
	return history, nil
}

// forecast is one cycle's forecast pass: one par.Do whose jobs are the
// truth, each ensemble member and each control member, in that order, so a
// failure reports the lowest failing job. A job advances its field into a
// fresh result through its worker's scratch: one mesh for the step ping-pong
// and SmoothNoiseInto's tables. A perturbed member's model error is then
// summed into that mesh and added to the result; it is smooth (spatially
// correlated), since only correlated background errors can be corrected at
// unobserved points, and keyed by (seed, cycle, ensemble id, member). A job
// depends on its key alone, so any worker count gives the same bits. The
// three results share no backing array: the control must not keep the
// ensemble the analysis replaces reachable.
func (c Config) forecast(scratch [][]float64, i int, truth []float64, ensemble, free [][]float64) ([]float64, [][]float64, [][]float64, error) {
	m, n := c.Enkf.Mesh, len(ensemble)
	truthOut := make([]float64, m.Points())
	in, out := [2][][]float64{ensemble, free}, [2][][]float64{make([][]float64, n), make([][]float64, n)}
	err := par.Do(1+2*n, len(scratch), func(w, j int) error {
		if scratch[w] == nil {
			scratch[w] = make([]float64, m.Points()+2*(m.NX+m.NY))
		}
		buf, tab := scratch[w][:m.Points()], scratch[w][m.Points():]
		if j == 0 {
			if err := c.Model.RunInto(truthOut, buf, truth, c.StepsPerCycle); err != nil {
				return fmt.Errorf("truth forecast: %w", err)
			}
			return nil
		}
		which, k := (j-1)/n, (j-1)%n
		dst := make([]float64, m.Points())
		out[which][k] = dst
		if err := c.Model.RunInto(dst, buf, in[which][k], c.StepsPerCycle); err != nil {
			return fmt.Errorf("%s forecast: model: member %d: %w", [2]string{"ensemble", "control"}[which], k, err)
		}
		if c.ModelErrorSD > 0 {
			workload.SmoothNoiseInto(buf, tab, m, c.ModelErrorSD, c.Seed, 0x30DE1, i, which, k)
			for p, v := range buf {
				dst[p] += v
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return truthOut, out[0], out[1], nil
}

// meanRMSE is enkf.RMSE(enkf.EnsembleMean(fields), truth) without the mean
// field: the same operations in the same order. Each point's members are
// summed in member order and scaled by 1/N (the conversion rounds the scaled
// mean, as storing it did), then compared with the truth.
func meanRMSE(fields [][]float64, truth []float64) float64 {
	inv := 1 / float64(len(fields))
	var s float64
	for p, t := range truth {
		var sum float64
		for _, f := range fields {
			sum += f[p]
		}
		d := float64(sum*inv) - t
		s += d * d
	}
	return math.Sqrt(s / float64(len(truth)))
}

// SerialAnalyzer runs the serial reference analysis.
func SerialAnalyzer() Analyzer {
	return func(cfg enkf.Config, background [][]float64, net *obs.Network) ([][]float64, error) {
		return enkf.SerialReference(cfg, background, net)
	}
}

// SEnKFAnalyzer writes each cycle's background ensemble into tpl.Dir (as an
// operational system would, between the model run and the assimilation) and
// runs the real parallel S-EnKF over the files. tpl is the template of every
// cycle's problem: its hooks (Tr, Obs, Msgs, Faults, Prof) are carried into
// each run — a monitor sees BeginRun/EndRun per cycle, injected faults recur
// each cycle — and Cfg and Net are filled per cycle.
func SEnKFAnalyzer(tpl core.Problem, pl core.Plan) Analyzer {
	return fileAnalyzer(tpl, func(p core.Problem) ([][]float64, error) { return core.RunSEnKF(p, pl) })
}

// PEnKFAnalyzer is SEnKFAnalyzer for the block-reading baseline.
func PEnKFAnalyzer(tpl core.Problem, dec grid.Decomposition) Analyzer {
	return fileAnalyzer(tpl, func(p core.Problem) ([][]float64, error) { return baseline.RunPEnKF(p, dec) })
}

// fileAnalyzer writes the background into tpl.Dir and runs tpl, completed
// with the cycle's configuration and observations, over the files.
func fileAnalyzer(tpl core.Problem, run func(core.Problem) ([][]float64, error)) Analyzer {
	return func(cfg enkf.Config, background [][]float64, net *obs.Network) ([][]float64, error) {
		if _, err := ensio.WriteEnsemble(tpl.Dir, cfg.Mesh, background); err != nil {
			return nil, err
		}
		p := tpl
		p.Cfg, p.Net = cfg, net
		return run(p)
	}
}
