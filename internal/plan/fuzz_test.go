package plan

import (
	"errors"
	"testing"

	"senkf/internal/grid"
)

// FuzzCompile compiles generated geometries under all three reader
// strategies and checks the plan's structural invariants: the analysed
// boxes tile each sub-domain once, every payload box lies inside what its
// sender read, every Expect equals the inbound level-0 messages of
// ExpectedEdges, the tag space is a bijection, and the plan's own DAG and
// edge matrix conform to themselves. A geometry that does not divide is an
// error, never a panic.
//
//	go test -run '^$' -fuzz FuzzCompile -fuzztime 5s ./internal/plan/
func FuzzCompile(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzCompile. Each byte is folded into a small
	// range below; reader picks S-, P- or L-EnKF; skew makes the mesh one
	// column too wide for its split.
	f.Fuzz(func(t *testing.T, nsdx, nsdy, w, h, l, ncg, n, levels, xi, eta, reader uint8, skew bool) {
		g := geometry{
			nsdx: 1 + int(nsdx%6), nsdy: 1 + int(nsdy%6),
			w: 1 + int(w%12), h: 1 + int(h%24),
			l: 1 + int(l%8), ncg: 1 + int(ncg%8), n: 1 + int(n%16),
			levels: int(levels % 5), xi: int(xi % 7), eta: int(eta % 7),
		}
		nx := g.nsdx * g.w
		if skew && g.nsdx > 1 {
			nx++
		}
		mesh, err := grid.NewMesh(nx, g.nsdy*g.h)
		if err != nil {
			t.Fatal(err)
		}
		d, err := grid.NewDecomposition(mesh, g.nsdx, g.nsdy, grid.Radius{Xi: g.xi, Eta: g.eta})
		if skew && g.nsdx > 1 {
			if !errors.Is(err, grid.ErrIndivisible) {
				t.Fatalf("%+v: mesh %d wide split %d ways: err = %v, want ErrIndivisible", g, nx, g.nsdx, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}

		var s Spec
		valid := true
		switch reader % 3 {
		case 0:
			s = SEnKF(d, g.n, g.l, g.ncg)
			valid = g.h%g.l == 0 && g.n%g.ncg == 0
		case 1:
			s = PEnKF(d, g.n)
		case 2:
			s = LEnKF(d, g.n)
			valid = g.levels <= 1
		}
		s = s.WithLevels(g.levels)
		c, err := Compile(s)
		if !valid {
			if err == nil {
				t.Fatalf("%+v %s: invalid geometry compiled", g, s.Reader.Name())
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v %s: %v", g, s.Reader.Name(), err)
		}
		checkTiling(t, c)
		checkEdges(t, c)
		checkTags(t, s)
		checkSelfConformance(t, c)
	})
}

type geometry struct {
	nsdx, nsdy, w, h, l, ncg, n, levels, xi, eta int
}

// checkTiling: each compute rank's Analyze boxes lie inside its stage
// boxes and cover its sub-domain exactly once.
func checkTiling(t *testing.T, c *Compiled) {
	t.Helper()
	for _, r := range c.Compute {
		covered := make([]int, r.Sub.Points())
		for _, st := range r.Stages {
			a := st.Analyze
			if a.Intersect(st.Box) != a {
				t.Fatalf("%s stage %d: analyses %v outside its data %v", r.Name, st.Stage, a, st.Box)
			}
			if a.Intersect(r.Sub) != a {
				t.Fatalf("%s stage %d: analyses %v outside its sub-domain %v", r.Name, st.Stage, a, r.Sub)
			}
			for y := a.Y0; y < a.Y1; y++ {
				for x := a.X0; x < a.X1; x++ {
					covered[(y-r.Sub.Y0)*r.Sub.Width()+x-r.Sub.X0]++
				}
			}
		}
		for i, k := range covered {
			if k != 1 {
				t.Fatalf("%s: point %d of %v analysed %d times", r.Name, i, r.Sub, k)
			}
		}
	}
}

// checkEdges: every payload lies inside what its sender read, and every
// compute stage's Expect equals its inbound level-0 messages.
func checkEdges(t *testing.T, c *Compiled) {
	t.Helper()
	for _, r := range c.IO {
		for _, st := range r.Stages {
			for _, dst := range st.Comm.Dsts {
				box := c.Compute[dst].Stages[st.Stage].Box
				if box.Intersect(st.Read.Box) != box {
					t.Fatalf("%s stage %d: sends %v to rank %d, read only %v", r.Name, st.Stage, box, dst, st.Read.Box)
				}
			}
		}
	}
	inbound := map[[2]int]int64{}
	for k, es := range ExpectedEdges(c) {
		if k.Level == 0 {
			inbound[[2]int{k.Dst, k.Stage}] += es.Msgs
		}
	}
	for _, r := range c.Compute {
		for _, st := range r.Stages {
			if got := inbound[[2]int{r.Rank, st.Stage}]; got != int64(st.Expect) {
				t.Fatalf("%s stage %d: expects %d blocks, the edges carry %d", r.Name, st.Stage, st.Expect, got)
			}
		}
	}
}

// checkTags: Tag maps the (stage, member, level) grid onto [0, L·N·levels)
// one to one, and InvertTag undoes it.
func checkTags(t *testing.T, s Spec) {
	t.Helper()
	lv := s.LevelCount()
	seen := make([]bool, s.L*s.N*lv)
	for stage := 0; stage < s.L; stage++ {
		for member := 0; member < s.N; member++ {
			for level := 0; level < lv; level++ {
				tag := s.Tag(stage, member, level)
				if tag < 0 || tag >= len(seen) || seen[tag] {
					t.Fatalf("Tag(%d,%d,%d) = %d: outside [0, %d) or taken twice", stage, member, level, tag, len(seen))
				}
				seen[tag] = true
				if gs, gm, gl, ok := s.InvertTag(tag); !ok || gs != stage || gm != member || gl != level {
					t.Fatalf("InvertTag(%d) = (%d,%d,%d,%v), want (%d,%d,%d)", tag, gs, gm, gl, ok, stage, member, level)
				}
			}
		}
	}
	if _, _, _, ok := s.InvertTag(len(seen)); ok {
		t.Fatalf("InvertTag(%d) accepted a tag past the plan's space", len(seen))
	}
}

// checkSelfConformance: the plan's expected DAG, streamed through a
// Checker, closes with no divergence, and its edge matrix compares clean
// against itself.
func checkSelfConformance(t *testing.T, c *Compiled) {
	t.Helper()
	k := NewChecker(c)
	for name, tr := range c.ExpectedDAG() {
		for _, s := range tr.Spans {
			if d := k.Span(name, s); d != "" {
				t.Fatal(d)
			}
		}
		for _, stage := range tr.Ready {
			if d := k.Ready(name, stage); d != "" {
				t.Fatal(d)
			}
		}
	}
	if ds := k.Close(nil); len(ds) > 0 {
		t.Fatalf("the plan's own DAG does not close: %v", ds)
	}
	e := ExpectedEdges(c)
	if u, o, m, s := e.Compare(e); len(u)+len(o)+len(m)+len(s) > 0 {
		t.Fatalf("expected edges differ from themselves: %v %v %v %v", u, o, m, s)
	}
}
