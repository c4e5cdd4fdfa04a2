package baseline

import (
	"senkf/internal/core"
	"senkf/internal/grid"
	"senkf/internal/plan"
)

// RunPEnKFMultiLevel executes the block-reading baseline over a multi-level
// ensemble (a Problem with Nets): every rank block-reads its expansion *of
// every level* from every member file — paying the per-row addressing
// penalty on rows that are now levels × heavier — and assimilates level by
// level. The analysis is returned as [level][member][]field. Like the
// single-level baselines, it is a thin spec wrapper over the shared engine.
func RunPEnKFMultiLevel(p Problem, dec grid.Decomposition) ([][][]float64, error) {
	if len(p.Nets) == 0 {
		return nil, plan.ErrNoNetworks
	}
	c, err := plan.Compile(plan.PEnKF(dec, p.Cfg.N).WithLevels(p.Levels()))
	if err != nil {
		return nil, err
	}
	return core.ExecutePlanLevels(p, c)
}
