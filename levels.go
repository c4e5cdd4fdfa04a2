package senkf

import (
	"senkf/internal/baseline"
	"senkf/internal/core"
	"senkf/internal/ensio"
	"senkf/internal/workload"
)

// GenerateTruthLevels produces one deterministic truth field per vertical
// level.
func GenerateTruthLevels(m Mesh, spec FieldSpec, levels int, seed uint64) ([][]float64, error) {
	return workload.TruthLevels(m, spec, levels, seed)
}

// GenerateEnsembleLevels produces n members of a multi-level state:
// result[k][l] is member k's field at level l.
func GenerateEnsembleLevels(m Mesh, truths [][]float64, n int, spread float64, seed uint64) ([][][]float64, error) {
	return workload.EnsembleLevels(m, truths, n, spread, seed)
}

// WriteEnsembleLevels stores a multi-level ensemble as member files with
// level-interleaved layout: a latitude bar carries all levels contiguously,
// so one addressing operation still fetches a complete 3-D bar.
func WriteEnsembleLevels(dir string, m Mesh, members [][][]float64) ([]string, error) {
	return ensio.WriteEnsembleLevels(dir, m, members)
}

// RunSEnKFMultiLevel executes S-EnKF over a multi-level ensemble — a Problem
// with Nets: member files carry len(Nets) vertical levels interleaved per grid
// point (the paper's h = levels × 8 bytes), each with its own network. The I/O
// ranks read each stage's bar once for all levels (shared addressing), the
// compute ranks assimilate level by level with 2-D localization. Returns
// the analysis as [level][member][]field. It is a thin spec wrapper: the
// same compiled plan RunSEnKF executes, with the level dimension set, runs
// on the one shared engine.
func RunSEnKFMultiLevel(p Problem, plan Plan) ([][][]float64, error) {
	return core.RunSEnKFMultiLevel(p, plan)
}

// RunPEnKFMultiLevel executes the block-reading baseline over a multi-level
// ensemble — every rank block-reads its expansion of every level from every
// member file and assimilates level by level. Like RunSEnKFMultiLevel it is
// a thin spec wrapper over the shared engine.
func RunPEnKFMultiLevel(p Problem, dec Decomposition) ([][][]float64, error) {
	return baseline.RunPEnKFMultiLevel(p, dec)
}
