package core

import "senkf/internal/plan"

// RunSEnKFMultiLevel executes the S-EnKF schedule over a multi-level
// ensemble — a Problem with Nets: member files carry len(Nets) vertical
// levels interleaved per grid point (the paper's h = levels × 8 bytes), each
// level with its own observation network — and returns the analysis as
// [level][member][]field. The levels are assimilated with 2-D localization, level by level — standard practice for
// layered ocean states — but the I/O is shared: one bar read per stage
// fetches *all* levels of the stage rows with a single addressing operation.
// It is a thin spec wrapper: the same plan RunSEnKF compiles, with the level
// dimension set, handed to the one shared engine — the level loop lives
// inside ExecutePlanLevels, not here.
func RunSEnKFMultiLevel(p Problem, pl Plan) ([][][]float64, error) {
	if len(p.Nets) == 0 {
		return nil, plan.ErrNoNetworks
	}
	c, err := plan.Compile(pl.Spec(p.Cfg.N).WithLevels(p.Levels()))
	if err != nil {
		return nil, err
	}
	return ExecutePlanLevels(p, c)
}
