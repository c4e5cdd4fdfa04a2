// Package senkf is a Go reproduction of "S-EnKF: Co-designing for Scalable
// Ensemble Kalman Filter" (Xiao, Wang, Wan, Hong, Tan — PPoPP 2019): a
// scalable, distributed ensemble Kalman filter built around three
// co-designs — concurrent-group bar reading of background ensemble members,
// multi-stage computation that overlaps file reading and communication with
// local analysis via helper threads, and cost-model-driven auto-tuning of
// the processor layout (n_sdx, n_sdy, L, n_cg).
//
// Each of the three algorithms — S-EnKF and the P-EnKF/L-EnKF baselines —
// is declared once, as a reader strategy compiled into an explicit per-rank
// schedule (SEnKFSpec/PEnKFSpec/LEnKFSpec + CompilePlan), and interpreted
// on two substrates:
//
//   - Real executions (RunSEnKF, RunPEnKF, RunLEnKF): numerically exact
//     assimilation over real member files, parallelised across goroutine
//     ranks with a message-passing runtime. All three reproduce the serial
//     reference (SerialReference) bit for bit.
//   - Simulated executions (SimulateSEnKF, SimulatePEnKF): the same
//     compiled schedules replayed on a discrete-event machine with a
//     parallel-file-system model at the paper's scale (12,000 processors,
//     0.1° data), regenerating the evaluation figures (PaperFigures).
//
// Because both substrates derive their event structure from the same
// compiled plan, a traced real run and a simulated run at equal geometry
// are structurally identical — same phase spans, same stage release edges
// per rank (internal/plan's Compiled.ExpectedDAG, StructuralDAG, DiffDAG).
//
// This package is the facade the binaries (cmd/), the examples and the
// README reach the system through, and it holds only what they use:
// TestFacadeNamesHaveAUser fails on an exported name none of them writes
// as senkf.X and no kept declaration names. Tests and new tools that need
// more import the internal package behind it.
//
// Quick start:
//
//	mesh, _ := senkf.NewMesh(96, 48)
//	truth := senkf.GenerateTruth(mesh, senkf.DefaultFieldSpec, 7)
//	members, _ := senkf.GenerateEnsemble(mesh, truth, 16, 1.5, 7)
//	dir, _ := os.MkdirTemp("", "ens")
//	senkf.WriteEnsemble(dir, mesh, members)
//	net, _ := senkf.NewStridedNetwork(mesh, truth, 3, 3, 0.01, 7)
//	cfg := senkf.Config{Mesh: mesh, Radius: senkf.Radius{Xi: 4, Eta: 2}, N: 16, Seed: 7}
//	dec, _ := senkf.NewDecomposition(mesh, 4, 2, cfg.Radius)
//	analysis, _ := senkf.RunSEnKF(senkf.Problem{Cfg: cfg, Dir: dir, Net: net},
//		senkf.Plan{Dec: dec, L: 4, NCg: 2})
package senkf

import (
	"io"

	"senkf/internal/baseline"
	"senkf/internal/core"
	"senkf/internal/costmodel"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/figures"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/report"
	"senkf/internal/report/bench"
	"senkf/internal/schedule"
	"senkf/internal/trace"
	"senkf/internal/workload"
)

// Geometry types.
type (
	// Mesh is the global latitude–longitude mesh (n_x × n_y grid points).
	Mesh = grid.Mesh
	// Radius is the domain-localization influence scope (ξ, η).
	Radius = grid.Radius
	// Decomposition splits the mesh into n_sdx × n_sdy sub-domains.
	Decomposition = grid.Decomposition
)

// Assimilation types.
type (
	// Config carries the assimilation parameters (mesh, radius, ensemble
	// size, solver, observation-perturbation seed).
	Config = enkf.Config
	// Solver selects the local analysis formulation.
	Solver = enkf.Solver
	// Network is an observation network over the mesh.
	Network = obs.Network
	// FieldSpec controls synthetic truth-field generation.
	FieldSpec = workload.FieldSpec
)

// Parallel execution types.
type (
	// Plan is the S-EnKF processor layout: decomposition + L + n_cg.
	Plan = core.Plan
	// PhaseBreakdown is time per phase, summed over a class of processors.
	PhaseBreakdown = metrics.Breakdown
)

// Observability types: a traced run is a stream of events.
type (
	// TraceEvent is one emitted trace event.
	TraceEvent = trace.Event
)

// Processor-name class prefixes: every I/O processor is named
// "io/g<group>/r<reader>" and every compute processor "comp/x<i>y<j>",
// across all schedules and their trace tracks.
const (
	IOPrefix      = metrics.IOPrefix
	ComputePrefix = metrics.ComputePrefix
)

// Modelling and simulation types.
type (
	// ModelParams are the Table-1 cost-model parameters.
	ModelParams = costmodel.Params
	// Choice is a (n_sdx, n_sdy, L, n_cg) parameter assignment.
	Choice = costmodel.Choice
	// Tuned is the auto-tuner's selected configuration.
	Tuned = costmodel.Tuned
	// TuneConstraints optionally bounds the auto-tuner's search.
	TuneConstraints = costmodel.TuneConstraints
	// Machine couples problem parameters with the file-system model for
	// simulated executions.
	Machine = schedule.Config
	// SimResult is the outcome of a simulated run.
	SimResult = schedule.Result
	// Figure is a regenerated evaluation figure.
	Figure = figures.Figure
	// FigureOptions configures the figure suite.
	FigureOptions = figures.Options
	// FigureSuite runs and caches the figure experiments.
	FigureSuite = figures.Suite
)

// Solver choices (§2.3).
const (
	// SolverEnsembleSpace solves the analysis in ensemble space (L-EnKF
	// style).
	SolverEnsembleSpace = enkf.SolverEnsembleSpace
	// SolverModifiedCholesky uses the modified-Cholesky inverse-covariance
	// estimate (P-EnKF style, refs [23, 24]).
	SolverModifiedCholesky = enkf.SolverModifiedCholesky
	// SolverETKF is the deterministic ensemble transform (LETKF family,
	// ref [25]); no observation perturbations.
	SolverETKF = enkf.SolverETKF
)

// Experiment presets.
var (
	// LaptopScale is a small geometry for real end-to-end runs.
	LaptopScale = workload.LaptopScale
	// DefaultFieldSpec is a reasonable ocean-like truth texture.
	DefaultFieldSpec = workload.DefaultFieldSpec
)

// NewMesh validates and returns an n_x × n_y mesh.
func NewMesh(nx, ny int) (Mesh, error) { return grid.NewMesh(nx, ny) }

// NewRadius validates a localization radius.
func NewRadius(xi, eta int) (Radius, error) { return grid.NewRadius(xi, eta) }

// NewDecomposition validates and returns a domain decomposition.
func NewDecomposition(m Mesh, nsdx, nsdy int, r Radius) (Decomposition, error) {
	return grid.NewDecomposition(m, nsdx, nsdy, r)
}

// GenerateTruth produces a deterministic synthetic truth field.
func GenerateTruth(m Mesh, spec FieldSpec, seed uint64) []float64 {
	return workload.Truth(m, spec, seed)
}

// GenerateEnsemble produces n background members around the truth, standing
// in for the long-time model integration of §5.1.
func GenerateEnsemble(m Mesh, truth []float64, n int, spread float64, seed uint64) ([][]float64, error) {
	return workload.Ensemble(m, truth, n, spread, seed)
}

// WriteEnsemble stores members as the on-disk background ensemble files
// read by the parallel implementations. It returns the file paths.
func WriteEnsemble(dir string, m Mesh, members [][]float64) ([]string, error) {
	return ensio.WriteEnsemble(dir, m, members)
}

// NewStridedNetwork builds a regular observation network measuring the
// truth with noise of the given variance.
func NewStridedNetwork(m Mesh, truth []float64, strideX, strideY int, variance float64, seed uint64) (*Network, error) {
	return obs.StridedNetwork(m, truth, strideX, strideY, variance, seed)
}

// NewOffGridNetwork places count observations at random fractional
// positions; each measures the bilinear interpolation of the truth — the
// non-trivial observation operator H of real observational data.
func NewOffGridNetwork(m Mesh, truth []float64, count int, variance float64, seed uint64) (*Network, error) {
	return obs.RandomOffGridNetwork(m, truth, count, variance, seed)
}

// SerialReference computes the full-grid localized analysis point by point
// — the ground truth all parallel paths must match.
func SerialReference(c Config, background [][]float64, net *Network) ([][]float64, error) {
	return enkf.SerialReference(c, background, net)
}

// EnsembleMean returns the point-wise ensemble mean field.
func EnsembleMean(fields [][]float64) []float64 { return enkf.EnsembleMean(fields) }

// RMSE returns the root-mean-square error between a field and the truth.
func RMSE(field, truth []float64) float64 { return enkf.RMSE(field, truth) }

// PhaseTotals sums a traced run's phase spans over the tracks of one
// processor class (IOPrefix, ComputePrefix, or a full proc name).
func PhaseTotals(events []TraceEvent, prefix string) PhaseBreakdown {
	return trace.PhaseBreakdown(events, prefix)
}

// Problem bundles what a real parallel run needs: the assimilation
// configuration, the member-file directory, the observation network (Net, or
// Nets — one per vertical level — for a multilevel ensemble), and the
// optional observation hooks. It is the one problem type of every real
// execution path (declared in internal/plan).
type Problem = plan.Problem

// Declarative plan types: algorithms are declared as specs, compiled into
// explicit per-rank schedules, and interpreted by either substrate.
type (
	// AlgorithmSpec declares one algorithm instance (geometry + ensemble
	// size + reader strategy); build one with SEnKFSpec/PEnKFSpec/LEnKFSpec.
	AlgorithmSpec = plan.Spec
	// CompiledPlan is the explicit per-rank schedule of a spec: who reads
	// what with how many addressing operations, what is sent where at which
	// stage, and where the helper-thread release points are.
	CompiledPlan = plan.Compiled
)

// SEnKFSpec declares the paper's schedule: bar reading in ncg concurrent
// groups feeding an l-stage overlapped pipeline.
func SEnKFSpec(dec Decomposition, n, l, ncg int) AlgorithmSpec { return plan.SEnKF(dec, n, l, ncg) }

// PEnKFSpec declares the block-reading baseline.
func PEnKFSpec(dec Decomposition, n int) AlgorithmSpec { return plan.PEnKF(dec, n) }

// LEnKFSpec declares the single-reader baseline.
func LEnKFSpec(dec Decomposition, n int) AlgorithmSpec { return plan.LEnKF(dec, n) }

// CompilePlan turns a declarative spec into its explicit per-rank schedule.
func CompilePlan(s AlgorithmSpec) (*CompiledPlan, error) { return plan.Compile(s) }

// RunSEnKF executes the paper's S-EnKF for real: C1 = n_cg·n_sdy I/O ranks
// bar-read the member files in concurrent groups and stream stage blocks to
// C2 = n_sdx·n_sdy compute ranks, whose helper threads overlap data
// arrival with the multi-stage local analysis. Returns the analysis
// ensemble as full fields.
func RunSEnKF(p Problem, pl Plan) ([][]float64, error) {
	return core.RunSEnKF(p, pl)
}

// RunPEnKF executes the block-reading state-of-the-art baseline (refs
// [23, 24]) on dec.NSdx × dec.NSdy ranks.
func RunPEnKF(p Problem, dec Decomposition) ([][]float64, error) {
	return baseline.RunPEnKF(p, dec)
}

// RunLEnKF executes the single-reader baseline (refs [13, 33]): a dedicated
// reader rank reads each member in full and scatters expansion blocks to
// the dec.NSdx × dec.NSdy compute ranks.
func RunLEnKF(p Problem, dec Decomposition) ([][]float64, error) {
	return baseline.RunLEnKF(p, dec)
}

// AutoTuneConstrained runs Algorithm 2 (restructured for large processor
// counts) within the bounds tc sets: given the model parameters, a processor
// budget and the earnings-rate threshold ε of Eq. (14), it returns the
// economic configuration.
func AutoTuneConstrained(p ModelParams, np int, eps float64, tc TuneConstraints) (Tuned, bool) {
	return p.AutoTuneConstrained(np, eps, tc)
}

// DefaultMachine is the calibrated paper-scale machine model: the §5.1
// problem on a Lustre-like file system with a Hockney-model network.
func DefaultMachine() Machine { return schedule.DefaultConfig() }

// SimulateSEnKF runs the S-EnKF schedule on the discrete-event machine with
// the given parameter choice.
func SimulateSEnKF(m Machine, ch Choice) (SimResult, error) {
	return schedule.SimulateSEnKF(m, ch)
}

// SimulatePEnKF runs the block-reading baseline schedule on nsdx × nsdy
// simulated processors.
func SimulatePEnKF(m Machine, nsdx, nsdy int) (SimResult, error) {
	return schedule.SimulatePEnKF(m, nsdx, nsdy)
}

// ChooseDecomposition picks the halo-minimizing (n_sdx, n_sdy) for np
// processors.
func ChooseDecomposition(p ModelParams, np int) (nsdx, nsdy int, err error) {
	return schedule.ChooseDecomposition(p, np)
}

// PaperFigures returns a figure suite at the paper's scale (Figures 1, 5,
// 9, 10, 11, 12, 13 of the evaluation).
func PaperFigures() *FigureSuite { return figures.NewSuite(figures.PaperOptions()) }

// QuickFigures returns a reduced-scale figure suite that runs in seconds.
func QuickFigures() *FigureSuite { return figures.NewSuite(figures.QuickOptions()) }

// NewFigureSuite builds a suite over custom options.
func NewFigureSuite(o FigureOptions) *FigureSuite { return figures.NewSuite(o) }

// PaperFigureOptions returns the paper-scale experiment options.
func PaperFigureOptions() FigureOptions { return figures.PaperOptions() }

// AblationResult is one rung of the co-design ablation ladder.
type AblationResult = figures.Ablation

// WriteAblations renders an ablation ladder as a text table.
func WriteAblations(w io.Writer, np int, abs []AblationResult) error {
	return figures.WriteAblations(w, np, abs)
}

// Fault injection and resilience types. A FaultPlan is a deterministic,
// seeded description of what goes wrong during a run — OST outage/degraded
// windows, straggler processors, damaged member files, I/O-rank deaths. The
// same plan drives both the simulated substrate (Machine.Faults) and real
// executions (RunSEnKFResilient / FaultPlan.Apply).
type (
	// FaultPlan is a deterministic fault-injection scenario.
	FaultPlan = faults.Plan
	// FaultGeometry describes the run a generated plan must fit.
	FaultGeometry = faults.Geometry
	// OSTWindow is a storage-target outage or degraded-bandwidth interval.
	OSTWindow = faults.OSTWindow
	// CycleCrash kills the whole process at a cycle boundary of a cycled
	// experiment — the fault the checkpoint/resume machinery survives.
	CycleCrash = faults.CycleCrash
	// Resilience configures the hardened real execution.
	Resilience = core.Resilience
	// DegradedResult is the structured outcome of a resilient run.
	DegradedResult = core.DegradedResult
	// EnsembleInfo describes an on-disk ensemble directory.
	EnsembleInfo = ensio.DirInfo
)

// GenerateFaultPlan derives a reproducible fault plan of the given
// intensity (0 = empty plan, 1 = nominal, >1 = harsher) for a run shaped
// by g. The same (seed, intensity, geometry) always yields the same plan.
func GenerateFaultPlan(seed uint64, intensity float64, g FaultGeometry) *FaultPlan {
	return faults.Generate(seed, intensity, g)
}

// RunSEnKFResilient executes S-EnKF hardened against I/O failures:
// unreadable or corrupted members are dropped (down to two) with a
// variance-preserving inflation reweighting, plan-declared reader deaths fail
// over inside their concurrent group, and transient read errors are retried
// at once, up to three attempts. See DegradedResult for what comes back.
func RunSEnKFResilient(p Problem, pl Plan, r Resilience) (*DegradedResult, error) {
	return core.RunSEnKFResilient(p, pl, r)
}

// InspectEnsemble validates an on-disk ensemble directory (n <= 0 scans
// for the member count) and returns its geometry.
func InspectEnsemble(dir string, n int) (EnsembleInfo, error) {
	return ensio.InspectDir(dir, n)
}

// Performance-observability types: tuner explainability, run reports and
// the bench regression pipeline.
type (
	// TuneSearchTrace records the full Algorithm 1/2 search for -explain.
	TuneSearchTrace = costmodel.SearchTrace
	// RunReport is the structured outcome of one traced run.
	RunReport = report.Report
	// BenchRecord is the content of one versioned BENCH_<n>.json.
	BenchRecord = bench.Record
	// BenchRunDelta compares one bench run across two records.
	BenchRunDelta = bench.RunDelta
)

// AutoTuneExplained is AutoTuneConstrained with the full Algorithm 1/2
// search table attached (the Eq. 13–14 earnings-rate series and stopping
// points); senkf-tune -explain prints it.
func AutoTuneExplained(p ModelParams, np int, eps float64, tc TuneConstraints) (Tuned, *TuneSearchTrace, bool) {
	return p.AutoTuneExplained(np, eps, tc)
}

// ReadChromeTrace decodes a Chrome trace-event JSON file (a traced run's
// -trace output) back into events.
func ReadChromeTrace(r io.Reader) ([]TraceEvent, error) { return trace.ReadChrome(r) }

// BuildRunReport computes the structured run report — phase breakdowns,
// overlap shares, critical path, per-stage pipeline efficiency and (when
// the trace carries a tuner prediction) model drift — from trace events.
func BuildRunReport(events []TraceEvent) (*RunReport, error) {
	return report.Build(events)
}

// CollectBenchRecord runs the suite's P-EnKF/S-EnKF ladder and assembles
// a bench record (Version is assigned when written).
func CollectBenchRecord(s *FigureSuite, scale string) (BenchRecord, error) {
	return bench.FromSuite(s, scale)
}

// LatestBenchRecord loads the highest-versioned BENCH_<n>.json in dir.
func LatestBenchRecord(dir string) (BenchRecord, string, bool, error) {
	return bench.LatestRecord(dir)
}

// WriteBenchRecord stores rec in dir as the next BENCH_<n>.json version
// and returns the written path.
func WriteBenchRecord(dir string, rec BenchRecord) (string, error) {
	return bench.WriteRecord(dir, rec)
}

// CompareBenchRecords matches runs by (algorithm, np) and flags wall-time
// regressions beyond the relative tolerance.
func CompareBenchRecords(prev, cur BenchRecord, tol float64) ([]BenchRunDelta, error) {
	return bench.Compare(prev, cur, tol)
}

// BenchRegressions filters compare deltas down to the failures.
func BenchRegressions(deltas []BenchRunDelta) []BenchRunDelta {
	return bench.Regressions(deltas)
}
