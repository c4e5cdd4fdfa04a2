package core

import "senkf/internal/plan"

// MultiLevelProblem is the shared multi-level problem type, declared in
// internal/plan: member files carry `Levels` vertical levels interleaved
// per grid point (realising the paper's h = levels × 8 bytes per-point
// volume), each level with its own observation network. The levels are
// assimilated with 2-D localization, level by level — standard practice
// for layered ocean states — but the I/O is shared: one bar read per stage
// fetches *all* levels of the stage rows with a single addressing
// operation.
type MultiLevelProblem = plan.MultiLevelProblem

// RunSEnKFMultiLevel executes the S-EnKF schedule over a multi-level
// ensemble and returns the analysis as [level][member][]field, assembled at
// world rank 0. It is a thin spec wrapper: the same plan RunSEnKF compiles,
// with the level dimension set, handed to the one shared engine — the level
// loop lives inside ExecutePlanLevels, not here.
func RunSEnKFMultiLevel(p MultiLevelProblem, pl Plan) ([][][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c, err := plan.Compile(pl.Spec(p.Cfg.N).WithLevels(p.Levels()))
	if err != nil {
		return nil, err
	}
	return ExecutePlanLevels(p.Problem(), c)
}
