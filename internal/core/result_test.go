package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/mpi"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/workload"
)

// fixture is a generated multilevel problem on disk — observed every stride
// points each way — with its background and per-level serial references.
type fixture struct {
	p       Problem
	members [][][]float64 // [member][level]
	refs    [][][]float64 // [level][member]
}

func newFixture(t *testing.T, nx, ny, n, levels, stride int, radius grid.Radius, seed uint64) fixture {
	t.Helper()
	m, err := grid.NewMesh(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	truths, err := workload.TruthLevels(m, workload.DefaultFieldSpec, levels, seed)
	if err != nil {
		t.Fatal(err)
	}
	members, err := workload.EnsembleLevels(m, truths, n, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsembleLevels(dir, m, members); err != nil {
		t.Fatal(err)
	}
	f := fixture{members: members, refs: make([][][]float64, levels)}
	f.p = Problem{Cfg: enkf.Config{Mesh: m, Radius: radius, N: n, Seed: seed}, Dir: dir, Nets: make([]*obs.Network, levels)}
	for l := range f.refs {
		if f.p.Nets[l], err = obs.StridedNetwork(m, truths[l], stride, stride, 0.01, seed+uint64(l)); err != nil {
			t.Fatal(err)
		}
		if f.refs[l], err = enkf.SerialReference(f.p.Cfg, f.level(l, nil), f.p.Nets[l]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// level returns level l of the background, of the given members (nil: all).
func (f fixture) level(l int, members []int) [][]float64 {
	if members == nil {
		for k := range f.members {
			members = append(members, k)
		}
	}
	bg := make([][]float64, len(members))
	for s, k := range members {
		bg[s] = f.members[k][l]
	}
	return bg
}

func (f fixture) compile(t *testing.T, s plan.Spec) *plan.Compiled {
	t.Helper()
	c, err := plan.Compile(s.WithLevels(f.p.Levels()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (f fixture) decompose(t *testing.T, nsdx, nsdy int) grid.Decomposition {
	t.Helper()
	dec, err := grid.NewDecomposition(f.p.Cfg.Mesh, nsdx, nsdy, f.p.Cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// exact reports where got differs from want, bit for bit.
func exact(got, want [][][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d levels, want %d", len(got), len(want))
	}
	for l := range got {
		if d := enkf.MaxAbsDiffFields(got[l], want[l]); d != 0 {
			return fmt.Errorf("level %d differs from the serial reference by %g", l, d)
		}
	}
	return nil
}

// TestRecycledPayloadNeverReachesAResult alternates two problems of different
// seeds, member counts and stage-box sizes — so the bundles one run gives back
// are resliced or refused by the other — over both read paths, in one process.
// Every result must equal its own serial reference when it is returned and
// still when the next run has finished: a payload recycled while something
// reads it, or a result aliasing pooled memory, is a wrong bit here or, under
// -race, a report. Failing and degraded runs in the middle recycle nothing
// they should not.
func TestRecycledPayloadNeverReachesAResult(t *testing.T) {
	big := newFixture(t, 36, 24, 12, 2, 3, grid.Radius{Xi: 1, Eta: 2}, 2401)
	small := newFixture(t, 24, 12, 20, 1, 2, grid.Radius{Xi: 2, Eta: 1}, 2402)
	type run struct {
		f fixture
		c *plan.Compiled
	}
	bigDec, smallDec := big.decompose(t, 3, 2), small.decompose(t, 4, 2)
	runs := []run{
		{big, big.compile(t, plan.SEnKF(bigDec, 12, 4, 2))},
		{small, small.compile(t, plan.SEnKF(smallDec, 20, 3, 2))},
		{big, big.compile(t, plan.PEnKF(bigDec, 12))},
		{small, small.compile(t, plan.SEnKF(smallDec, 20, 2, 5))},
		{big, big.compile(t, plan.SEnKF(bigDec, 12, 2, 3))},
		{small, small.compile(t, plan.LEnKF(smallDec, 20))},
	}

	// The same small problem in a directory of its own, to be damaged.
	hurt := small
	hurt.p.Dir = t.TempDir()
	if _, err := ensio.WriteEnsembleLevels(hurt.p.Dir, hurt.p.Cfg.Mesh, hurt.members); err != nil {
		t.Fatal(err)
	}
	fp := &faults.Plan{
		FileFaults: []faults.FileFault{{Member: 7, Kind: faults.FileCorrupt}},
		Deaths:     []faults.RankDeath{{Group: 1, Reader: 0, BeforeStage: 1}},
	}
	if err := fp.Apply(hurt.p.Dir); err != nil {
		t.Fatal(err)
	}

	var prev [][][]float64
	var prevRefs [][][]float64
	for i := 0; i < 24; i++ {
		r := runs[i%len(runs)]
		got, err := ExecutePlanLevels(r.f.p, r.c)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := exact(got, r.f.refs); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if prev != nil {
			if err := exact(prev, prevRefs); err != nil {
				t.Fatalf("result of run %d after run %d finished: %v", i-1, i, err)
			}
		}
		prev, prevRefs = got, r.f.refs

		switch i {
		case 9:
			// A degraded run: one member dropped, one reader dead mid-run.
			res, err := RunSEnKFResilient(hurt.p, Plan{Dec: smallDec, L: 3, NCg: 2}, Resilience{Faults: fp})
			if err != nil {
				t.Fatalf("degraded run: %v", err)
			}
			if len(res.Dropped) != 1 || len(res.Failovers) != 1 {
				t.Fatalf("degraded run dropped %+v, failed over %+v", res.Dropped, res.Failovers)
			}
			ref, err := enkf.SerialReference(res.EffectiveConfig, hurt.level(0, res.Survivors), hurt.p.Nets[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := exact([][][]float64{res.Fields}, [][][]float64{ref}); err != nil {
				t.Fatalf("degraded run: %v", err)
			}
		case 10:
			// A run that dies after its first stage is analysed and given
			// back, with later stages' payloads read, sent or in flight:
			// one rank's last stage box no longer holds what it analyses.
			c := *runs[1].c
			c.Compute = append([]plan.ComputeRank(nil), c.Compute...)
			c.Compute[5].Stages = append([]plan.ComputeStage(nil), c.Compute[5].Stages...)
			last := &c.Compute[5].Stages[len(c.Compute[5].Stages)-1]
			last.Box.Y0 = last.Analyze.Y1 - 1
			if _, err := ExecutePlanLevels(small.p, &c); err == nil || strings.Contains(err.Error(), "panic") {
				t.Fatalf("a stage box that misses its expansion: %v", err)
			}
		case 11:
			// A run that dies before anything is read.
			empty := small.p
			empty.Dir = t.TempDir()
			if _, err := ExecutePlanLevels(empty, runs[1].c); err == nil {
				t.Fatal("a run over an empty directory succeeded")
			}
		}
	}
}

// TestShortMetaIsAnErrorNotAPanic sends a compute rank a stage block, and
// rank 0 a completion token, whose meta is shorter than its reader indexes.
func TestShortMetaIsAnErrorNotAPanic(t *testing.T) {
	f := newFixture(t, 24, 12, 8, 1, 2, grid.Radius{Xi: 1, Eta: 1}, 2403)
	c := f.compile(t, plan.SEnKF(f.decompose(t, 2, 2), 8, 2, 2))
	check := func(name string, err error, want string) {
		t.Helper()
		var me *metaError
		switch {
		case err == nil:
			t.Errorf("%s: no error", name)
		case strings.Contains(err.Error(), "panic"):
			t.Errorf("%s: panicked: %v", name, err)
		case !errors.As(err, &me) || !strings.Contains(me.Error(), want):
			t.Errorf("%s: %v, want a meta error naming %q", name, err, want)
		}
	}

	w, err := mpi.NewWorld(c.WorldSize())
	if err != nil {
		t.Fatal(err)
	}
	fields, t0 := newFields(1, 8, f.p.Cfg.Mesh.Points()), time.Now()
	shared := func(enkf.Config) ([][][]float64, []*obs.Perturbations) { return fields, make([]*obs.Perturbations, 1) }
	err = w.Run(func(comm *mpi.Comm) error {
		if comm.Rank() < c.NumCompute() {
			r := c.Compute[comm.Rank()]
			return engineCompute(comm, f.p, c, r, nil, shared, t0, f.p.Prof.Scope(r.Name))
		}
		// The first I/O rank sends the first block a compute rank waits for,
		// its box cut off the meta; the others send nothing.
		if comm.Rank() == c.NumCompute() {
			st := c.IO[0].Stages[0]
			return comm.SendOwned(st.Comm.Dsts[0], c.Spec.Tag(st.Stage, 0, 0), []int{0, 0, 12}, make([]float64, 4))
		}
		return nil
	})
	check("stage block", err, "stage 0 member 0 block carries 3 meta values, want 5")

	w, err = mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(comm *mpi.Comm) error {
		switch comm.Rank() {
		case 0:
			return gatherResults(comm, f.p.Cfg, c.Compute[0].Sub, 3)
		case 2:
			return comm.Send(0, resultTag, []int{0, 12}, nil)
		}
		return nil
	})
	check("completion token", err, "completion token of rank 2 carries 2 meta values, want 5")
}

// TestResultCoverageIsChecked pins what rank 0 guaranteed when it assembled
// the result itself and still does now that it only hears of it: the ranks'
// sub-domains cover every mesh point exactly once, inside the mesh, with one
// member count — and a rank writes nowhere but inside the sub-domain it
// reports. Each case is a hand-damaged compiled plan run end to end.
func TestResultCoverageIsChecked(t *testing.T) {
	f := newFixture(t, 24, 12, 8, 2, 2, grid.Radius{Xi: 1, Eta: 1}, 2404)
	healthy := f.compile(t, plan.SEnKF(f.decompose(t, 2, 2), 8, 2, 2))
	if got, err := ExecutePlanLevels(f.p, healthy); err != nil || exact(got, f.refs) != nil {
		t.Fatalf("healthy plan: %v, %v", err, exact(got, f.refs))
	}
	// Ranks 0..3 are sub-domains (0,0), (1,0), (0,1), (1,1), 12×6 each.
	for name, tc := range map[string]struct {
		damage func(ranks []plan.ComputeRank)
		want   string
	}{
		"a sub-domain grown into its neighbour": {
			func(r []plan.ComputeRank) { r[0].Sub.Y1++ },
			"core: point (0,6) covered twice",
		},
		"two ranks reporting the same sub-domain": {
			func(r []plan.ComputeRank) { r[3].Sub = r[1].Sub },
			"outside its sub-domain",
		},
		"a sub-domain shrunk by a row": {
			func(r []plan.ComputeRank) { r[2].Sub.Y1-- },
			"outside its sub-domain",
		},
		"a row nobody analyses": {
			func(r []plan.ComputeRank) {
				r[3].Sub.Y1--
				r[3].Stages[len(r[3].Stages)-1].Analyze.Y1--
			},
			"core: point (12,11) not covered",
		},
		"a sub-domain outside the mesh": {
			func(r []plan.ComputeRank) { r[0].Sub.X0-- },
			"outside the 24x12 mesh",
		},
	} {
		c := *healthy
		c.Compute = append([]plan.ComputeRank(nil), c.Compute...)
		for i := range c.Compute {
			c.Compute[i].Stages = append([]plan.ComputeStage(nil), c.Compute[i].Stages...)
		}
		tc.damage(c.Compute)
		if _, err := ExecutePlanLevels(f.p, &c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error holding %q", name, err, tc.want)
		}
	}

	// The tokens themselves, with no analysis behind them.
	left, right := grid.Box{X0: 0, X1: 12, Y0: 0, Y1: 12}, grid.Box{X0: 12, X1: 24, Y0: 0, Y1: 12}
	for name, tc := range map[string]struct {
		subs [2]grid.Box
		n1   int
		want string
	}{
		"tiling":         {[2]grid.Box{left, right}, 8, ""},
		"covered twice":  {[2]grid.Box{left, {X0: 11, X1: 24, Y0: 3, Y1: 12}}, 8, "core: point (11,3) covered twice"},
		"not covered":    {[2]grid.Box{left, {X0: 12, X1: 24, Y0: 0, Y1: 11}}, 8, "core: point (12,11) not covered"},
		"member counts":  {[2]grid.Box{left, right}, 7, "core: rank 1 analysed 7 members, rank 0 8"},
		"outside (sent)": {[2]grid.Box{left, {X0: 12, X1: 25, Y0: 0, Y1: 12}}, 8, "outside the 24x12 mesh"},
	} {
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(comm *mpi.Comm) error {
			cfg := f.p.Cfg
			if comm.Rank() == 1 {
				cfg.N = tc.n1
			}
			return gatherResults(comm, cfg, tc.subs[comm.Rank()], 2)
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want an error holding %q", name, err, tc.want)
		}
	}
}
