package core

import (
	"math"
	"runtime"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/plan"
)

// TestDataPathAllocationBudget bounds what one S-EnKF run allocates in
// multiples of the state it moves (levels·N·points·8 bytes). The run needs the
// result — one state, 1.11 as the allocator rounds a 36 kB field — and little
// else: the payloads (the state plus its stage halo, 8/6 of it here) are the
// ones the run before gave back, the ranks' analysis workspaces come from a
// pool that outlives the call, there is no per-rank copy of the result and no
// gather, and the network is sparse (stride 8), so the point-major
// transposition spans what the observations reach. Every further copy of the
// ensemble between file and fields costs a whole state more, and a pool that
// stopped working 1.3, so either slipping back in fails here, not only in the
// benchmark.
func TestDataPathAllocationBudget(t *testing.T) {
	const nx, ny, levels, n = 96, 48, 2, 16
	// States per call, best of three windows: 1.56–1.67 measured (a collection
	// empties the pools). Under -race sync.Pool drops a quarter of what it is
	// given — bundles, workspaces and read buffers alike — and a window reads
	// 2.26–2.64; 3.6–3.7 with the gather and fresh payloads, 13.0 before the
	// path was single-copy.
	budget := 2.0
	if raceEnabled {
		budget = 2.6
	}
	f := newFixture(t, nx, ny, n, levels, 8, grid.Radius{Xi: 0, Eta: 1}, 7)
	p, m := f.p, f.p.Cfg.Mesh
	c := f.compile(t, plan.SEnKF(f.decompose(t, 4, 2), n, 2, 2))

	// The warm-up call is also the correctness check: a cheap path that
	// moved the wrong bytes would be no path at all.
	got, err := ExecutePlanLevels(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact(got, f.refs); err != nil {
		t.Fatal(err)
	}

	const calls, windows = 5, 3
	state := float64(levels * n * m.Points() * 8)
	best := math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := ExecutePlanLevels(p, c); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
		t.Logf("%.2f MB per call for a %.2f MB state: %.2f states", perCall/1e6, state/1e6, perCall/state)
		best = math.Min(best, perCall/state)
	}
	if best > budget {
		t.Errorf("one run allocates %.2f× the state it moves, budget %.1f×", best, budget)
	}
}
