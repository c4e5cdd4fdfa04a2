package core

import (
	"math"
	"runtime"
	"runtime/debug"
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

// TestDataPathObjectsFollowThePlan counts the objects one S-EnKF run allocates
// on stream's shape scaled to 96×48 (2 levels, 4×2 or 8×2 sub-domains,
// radius (0,1), n_cg 2) and holds them to a function of the plan: a term per
// member is what opening its file costs the two readers that open it, and the
// stages and destinations add objects per stage, not per message. The count
// of one (member, destination) pair — a meta or a payload header of its own,
// 67 objects per member with both — shows as a slope above 20 per member, and
// as a destination or stage term that grows with N. The collector is off while
// a configuration is counted, so the payload and workspace pools keep what
// they are given and the count is the program's; under -race sync.Pool drops
// a quarter of its puts and the count is not.
func TestDataPathObjectsFollowThePlan(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	const nx, ny, levels = 96, 48, 2
	type shape struct{ n, l, nsdx int }
	fixtures := map[int]fixture{}
	objects := func(s shape) float64 {
		f, ok := fixtures[s.n]
		if !ok {
			f = newFixture(t, nx, ny, s.n, levels, 16, grid.Radius{Xi: 0, Eta: 1}, 11)
			fixtures[s.n] = f
		}
		c := f.compile(t, plan.SEnKF(f.decompose(t, s.nsdx, 2), s.n, s.l, 2))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// The first call fills the pools and checks the bits.
		got, err := ExecutePlanLevels(f.p, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := exact(got, f.refs); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		// The fewest of 16 calls: a pooled payload too small for the box
		// it is popped for is a miss whose place in the run the scheduler
		// decides, and misses only add.
		best := math.Inf(1)
		for i := 0; i < 16; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ExecutePlanLevels(f.p, c); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = math.Min(best, float64(after.Mallocs-before.Mallocs))
		}
		t.Logf("N %2d  L %d  n_sdx %d: %6.0f objects per run", s.n, s.l, s.nsdx, best)
		return best
	}
	count := map[shape]float64{}
	for _, s := range []shape{
		{16, 4, 4}, {32, 4, 4}, {64, 4, 4},
		{16, 2, 4}, {64, 2, 4},
		{16, 4, 8}, {64, 4, 8},
	} {
		count[s] = objects(s)
		runtime.GC() // the collector was off for the count; free the results
	}

	if slope := (count[shape{64, 4, 4}] - count[shape{16, 4, 4}]) / 48; slope > 20 {
		t.Errorf("%.1f objects per member from N = 16 to 64, want at most 20", slope)
	}
	for _, d := range []struct {
		what     string
		from, to shape
	}{
		{"doubling n_sdx", shape{0, 4, 4}, shape{0, 4, 8}},
		{"going from L = 2 to 4", shape{0, 2, 4}, shape{0, 4, 4}},
	} {
		at := func(n int) float64 {
			from, to := d.from, d.to
			from.n, to.n = n, n
			return count[to] - count[from]
		}
		if lo, hi := at(16), at(64); math.Abs(hi-lo) > 48 {
			t.Errorf("%s adds %.0f objects at N = 16 and %.0f at N = 64, want the same within 48", d.what, lo, hi)
		}
	}
}
