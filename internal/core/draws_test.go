package core

import (
	"testing"

	"senkf/internal/grid"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// A run of the dense benchmark's shape (72×36, N = 32, radius (4,2), every
// second point observed, 4×2 sub-domains, L = 3, n_cg = 2) draws each of its
// 648 observations' perturbed rows at most once, through the run's shared
// table. The boxes ask for 1,344 rows: a rank's stage boxes overlap by 2η rows
// and neighbouring ranks' expansions by ξ columns; drawn per box, the rows
// they share were drawn again.
func TestDenseRunDrawsEachRowOnce(t *testing.T) {
	f := newFixture(t, 72, 36, 32, 1, 2, grid.Radius{Xi: 4, Eta: 2}, 1)
	c := f.compile(t, plan.SEnKF(f.decompose(t, 4, 2), 32, 3, 2))
	p := f.p
	p.Tr = trace.New(nil)
	p.Tr.SetCounters(trace.NewRegistry())
	got, err := ExecutePlanLevels(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact(got, f.refs); err != nil {
		t.Fatal(err)
	}
	obsCount := p.NetAt(0).Len()
	rows := int(p.Tr.Counters().CounterValue("obs.perturbed_rows"))
	if rows <= 0 || rows > obsCount {
		t.Fatalf("the run drew %d perturbed rows for %d observations, want 1 to %d", rows, obsCount, obsCount)
	}
	t.Logf("%d perturbed rows drawn for %d observations", rows, obsCount)
}
