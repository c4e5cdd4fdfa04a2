// Package plan is the declarative layer of the repository: each of the
// three algorithms — P-EnKF, L-EnKF and S-EnKF — is described once, as a
// reader strategy over a domain decomposition, and compiled into an
// explicit per-rank schedule (what every rank reads, with how many
// addressing operations, what it sends where at which stage, and where the
// helper-thread release points are).
//
// The compiled plan is substrate-agnostic: internal/core interprets it on
// the real machine (goroutine ranks + real member files, numerically
// exact) and internal/schedule replays it on the discrete-event machine
// (virtual clock + parallel-file-system model, paper scale). Both
// substrates therefore derive their event structure — spans, proc names,
// addressing-operation counts, stage release edges — from this single
// source of truth, which is what makes the real-vs-simulated structural
// parity test possible.
//
// This package must never grow a substrate dependency: it imports neither
// mpi/ensio (real substrate) nor sim/parfs (simulated substrate). CI
// enforces the layering (scripts/check-layering.sh).
package plan

import (
	"errors"
	"fmt"

	"senkf/internal/enkf"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

// Problem bundles everything a real (numerically exact) run needs: the
// assimilation configuration, the member-file directory, the observation
// network, and optional observability hooks. It is the one shared problem
// type used by every real execution path (formerly duplicated as
// core.Problem and baseline.Problem).
type Problem struct {
	Cfg enkf.Config
	Dir string       // directory containing the member files
	Net *obs.Network // full observation network (small; read by everyone)
	// Nets, when non-empty, makes the problem multilevel: member files
	// carry len(Nets) vertical levels interleaved per grid point (the
	// paper's h = levels × 8 bytes), and level l is assimilated against
	// Nets[l]. Net is ignored when Nets is set; when Nets is empty the
	// problem is the ordinary single-level one over Net.
	Nets []*obs.Network
	// Tr, when non-nil and enabled, receives phase spans per rank.
	Tr *trace.Tracer
	// Obs, when non-nil, observes the run: BeginRun with the compiled
	// plan before ranks start, EndRun with the outcome (see RunObserver).
	Obs RunObserver
	// Msgs, when non-nil, observes every point-to-point message the run
	// carries: BeginMessages with the compiled plan before ranks start,
	// then one OnMessage per delivery (see MsgObserver). The engine hands
	// it to the transport, which invokes it through its own structurally
	// identical interface.
	Msgs MsgObserver
	// Faults, when non-nil, injects deterministic anomalies into the real
	// substrate: straggler ranks have each busy phase dilated to
	// Factor × its real duration (the wall-clock mirror of the simulated
	// machine's Sleep dilation), announced as fault trace events so a
	// live monitor can correlate injections with watchdog verdicts. Nil
	// is the exact pre-fault execution.
	Faults *faults.Plan
	// Prof, when non-nil, propagates pprof labels: each rank goroutine
	// runs under {run_id, algo, substrate, proc} and each plan stage
	// under an additional {stage}, so CPU profiles slice by the same
	// coordinates the trace uses (see internal/runtimeobs). Nil disables
	// labeling at the cost of a pointer check.
	Prof *runtimeobs.LabelSet
}

// Validate checks the problem's internal consistency.
func (p Problem) Validate() error {
	if err := p.Cfg.Validate(); err != nil {
		return err
	}
	if len(p.Nets) > 0 {
		for l, n := range p.Nets {
			if n == nil {
				return fmt.Errorf("plan: nil network at level %d", l)
			}
		}
	} else if p.Net == nil {
		return fmt.Errorf("plan: nil observation network")
	}
	if p.Dir == "" {
		return fmt.Errorf("plan: empty member directory")
	}
	return nil
}

// Levels returns the problem's vertical level count (1 for single-level).
func (p Problem) Levels() int {
	if len(p.Nets) > 0 {
		return len(p.Nets)
	}
	return 1
}

// NetAt returns the observation network of level l: Nets[l] for a
// multilevel problem, Net otherwise.
func (p Problem) NetAt(l int) *obs.Network {
	if len(p.Nets) > 0 {
		return p.Nets[l]
	}
	return p.Net
}

// ErrNoNetworks is what the multilevel entry points return for a Problem
// without Nets, which Validate accepts as the single-level problem over Net.
var ErrNoNetworks = errors.New("plan: no observation networks (need one per level)")

// MultiLevelProblem is Problem: a Problem with Nets set is the multilevel
// one. The name stays because the frozen benchmark module spells
// plan.MultiLevelProblem{Cfg:, Dir:, Nets:}; nothing else uses it.
type MultiLevelProblem = Problem

// Algorithm identifies one of the paper's three schedules.
type Algorithm string

const (
	AlgSEnKF Algorithm = "S-EnKF"
	AlgPEnKF Algorithm = "P-EnKF"
	AlgLEnKF Algorithm = "L-EnKF"
)

// ReaderStrategy declares who reads the background ensemble and how. The
// three implementations mirror the paper's reading approaches; the
// interface is closed (unexported methods) because a strategy and its
// compiler are co-designed.
type ReaderStrategy interface {
	// Name returns the strategy's display name.
	Name() string
	validate(s Spec) error
	compile(s Spec, c *Compiled) error
}

// BarReader is S-EnKF's concurrent-group bar reading (§4.1): NCg groups of
// n_sdy dedicated I/O ranks; the readers of a group bar-read the group's
// N/NCg member files stage by stage, one addressing operation per small
// bar (Eq. 5), while different groups read different files simultaneously.
type BarReader struct {
	NCg int // concurrent I/O groups
}

// Name implements ReaderStrategy.
func (BarReader) Name() string { return "bar" }

func (b BarReader) validate(s Spec) error {
	if s.L <= 0 {
		return fmt.Errorf("plan: layer count must be positive, got %d", s.L)
	}
	if s.Dec.SubHeight()%s.L != 0 {
		return fmt.Errorf("plan: sub-domain height %d not divisible by L=%d", s.Dec.SubHeight(), s.L)
	}
	if b.NCg <= 0 {
		return fmt.Errorf("plan: concurrent group count must be positive, got %d", b.NCg)
	}
	if s.N%b.NCg != 0 {
		return fmt.Errorf("plan: %d members not divisible by n_cg=%d", s.N, b.NCg)
	}
	return nil
}

// BlockReader is P-EnKF's block reading (§2.3, Figure 3): every compute
// rank block-reads its own expansion from every member file, paying one
// addressing operation per nominal expansion row (Eq. 2). There are no
// dedicated I/O ranks and no communication.
type BlockReader struct{}

// Name implements ReaderStrategy.
func (BlockReader) Name() string { return "block" }

func (BlockReader) validate(s Spec) error {
	if s.L != 1 {
		return fmt.Errorf("plan: block reading is single-stage, got L=%d", s.L)
	}
	return nil
}

// SingleReader is L-EnKF's reading (§3.1): one dedicated reader rank reads
// every member file in full (one addressing operation per file) and
// scatters expansion blocks to the compute ranks serially.
type SingleReader struct{}

// Name implements ReaderStrategy.
func (SingleReader) Name() string { return "single" }

func (SingleReader) validate(s Spec) error {
	if s.L != 1 {
		return fmt.Errorf("plan: single-reader scattering is single-stage, got L=%d", s.L)
	}
	if s.LevelCount() != 1 {
		return fmt.Errorf("plan: single-reader scattering is single-level, got %d levels", s.LevelCount())
	}
	return nil
}

// Spec is the declarative description of one algorithm instance: the
// decomposition geometry, the ensemble size, the pipeline depth, and the
// reader strategy. Build specs with SEnKF/PEnKF/LEnKF and turn them into
// executable per-rank schedules with Compile.
type Spec struct {
	Algorithm Algorithm
	Dec       grid.Decomposition
	N         int // ensemble members
	L         int // pipeline stages (layers per sub-domain); 1 for the baselines
	Reader    ReaderStrategy
	// Levels is the vertical level count of the member files (the paper's
	// h = levels × 8 bytes per grid point). 0 means 1 (single-level); use
	// LevelCount for the effective value. Levels does not change the plan's
	// rank/stage topology — every read fetches all levels of its region at
	// the same addressing-op cost (the bar-reading co-design), every send
	// carries one level's block, and compute analyses level by level inside
	// each stage.
	Levels int
}

// LevelCount returns the effective level count (Levels, with 0 → 1).
func (s Spec) LevelCount() int {
	if s.Levels <= 0 {
		return 1
	}
	return s.Levels
}

// WithLevels returns a copy of the spec with the level dimension set.
func (s Spec) WithLevels(levels int) Spec {
	s.Levels = levels
	return s
}

// Tag gives every (stage, member, level) triple a distinct message tag in
// the plan's tag space. With levels = 1 it reduces to the classic
// stage·n + member single-level tag, so single-level runs are
// bit-compatible with plans compiled before the level dimension existed.
func Tag(stage, nMembers, levels, member, level int) int {
	return (stage*nMembers+member)*levels + level
}

// Tag returns the message tag of (stage, member, level) under this spec's
// ensemble size and level count — the one tag derivation both the real
// engine and any replay share.
func (s Spec) Tag(stage, member, level int) int {
	return Tag(stage, s.N, s.LevelCount(), member, level)
}

// SEnKF declares the paper's schedule: bar reading in ncg concurrent
// groups feeding an L-stage overlapped pipeline.
func SEnKF(dec grid.Decomposition, n, l, ncg int) Spec {
	return Spec{Algorithm: AlgSEnKF, Dec: dec, N: n, L: l, Reader: BarReader{NCg: ncg}}
}

// PEnKF declares the block-reading baseline.
func PEnKF(dec grid.Decomposition, n int) Spec {
	return Spec{Algorithm: AlgPEnKF, Dec: dec, N: n, L: 1, Reader: BlockReader{}}
}

// LEnKF declares the single-reader baseline.
func LEnKF(dec grid.Decomposition, n int) Spec {
	return Spec{Algorithm: AlgLEnKF, Dec: dec, N: n, L: 1, Reader: SingleReader{}}
}

// Validate checks the spec against the problem geometry.
func (s Spec) Validate() error {
	if s.Reader == nil {
		return fmt.Errorf("plan: nil reader strategy")
	}
	if s.N <= 0 {
		return fmt.Errorf("plan: ensemble size must be positive, got %d", s.N)
	}
	if s.Dec.NSdx <= 0 || s.Dec.NSdy <= 0 {
		return fmt.Errorf("plan: invalid decomposition %dx%d", s.Dec.NSdx, s.Dec.NSdy)
	}
	if s.Levels < 0 {
		return fmt.Errorf("plan: negative level count %d", s.Levels)
	}
	return s.Reader.validate(s)
}

// Staged reports whether the spec describes a multi-stage pipeline whose
// spans and release instants carry stage tags (true only for S-EnKF; the
// baselines' single stage is untagged on both substrates).
func (s Spec) Staged() bool { return s.Algorithm == AlgSEnKF }
