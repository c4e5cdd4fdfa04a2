package plan

import (
	"fmt"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/metrics"
)

func dec(t *testing.T, nx, ny, nsdx, nsdy, xi, eta int) grid.Decomposition {
	t.Helper()
	m, err := grid.NewMesh(nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDecomposition(m, nsdx, nsdy, grid.Radius{Xi: xi, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBarReaderAddrOpsEq5 sweeps (n_sdy, L, n_cg) and asserts the golden
// Eq. 5 counts: every reader pays exactly one addressing operation per
// small bar — (N/n_cg)·L per reader, N·n_sdy·L in total.
func TestBarReaderAddrOpsEq5(t *testing.T) {
	const n = 24
	cases := []struct{ nsdx, nsdy, l, ncg int }{
		{4, 2, 1, 1},
		{4, 2, 3, 2},
		{2, 4, 5, 3},
		{6, 1, 2, 4},
		{1, 5, 4, 6},
		{3, 5, 2, 24},
	}
	for _, tc := range cases {
		d := dec(t, 120, 60, tc.nsdx, tc.nsdy, 8, 4)
		c, err := Compile(SEnKF(d, n, tc.l, tc.ncg))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got, want := len(c.IO), tc.ncg*tc.nsdy; got != want {
			t.Errorf("%+v: C1 = %d, want %d", tc, got, want)
		}
		if got, want := c.NumCompute(), tc.nsdx*tc.nsdy; got != want {
			t.Errorf("%+v: C2 = %d, want %d", tc, got, want)
		}
		perReader := n / tc.ncg * tc.l
		for _, r := range c.IO {
			if got := r.AddrOps(); got != perReader {
				t.Errorf("%+v: reader %s addressing ops = %d, want %d (Eq. 5)", tc, r.Name, got, perReader)
			}
			if len(r.Members) != n/tc.ncg {
				t.Errorf("%+v: reader %s has %d members, want %d", tc, r.Name, len(r.Members), n/tc.ncg)
			}
			for _, k := range r.Members {
				if k%tc.ncg != r.Group {
					t.Errorf("%+v: reader %s member %d not ≡ %d (mod %d)", tc, r.Name, k, r.Group, tc.ncg)
				}
			}
		}
		if got, want := c.TotalAddrOps(), n*tc.nsdy*tc.l; got != want {
			t.Errorf("%+v: total addressing ops = %d, want N·n_sdy·L = %d", tc, got, want)
		}
	}
}

// TestBlockReaderAddrOpsEq2 sweeps decompositions and asserts the golden
// Eq. 2 counts: every processor pays one addressing operation per nominal
// expansion row per file — N·(n_y/n_sdy + 2η) each.
func TestBlockReaderAddrOpsEq2(t *testing.T) {
	const n = 10
	for _, tc := range []struct{ nsdx, nsdy, eta int }{
		{4, 2, 4}, {2, 5, 4}, {1, 1, 0}, {6, 3, 7}, {12, 10, 4},
	} {
		d := dec(t, 120, 60, tc.nsdx, tc.nsdy, 8, tc.eta)
		c, err := Compile(PEnKF(d, n))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(c.IO) != 0 {
			t.Errorf("%+v: block reading has %d I/O ranks, want 0", tc, len(c.IO))
		}
		perProc := n * (60/tc.nsdy + 2*tc.eta)
		for _, r := range c.Compute {
			if got := r.AddrOps(); got != perProc {
				t.Errorf("%+v: proc %s addressing ops = %d, want %d (Eq. 2)", tc, r.Name, got, perProc)
			}
		}
		if got, want := c.TotalAddrOps(), tc.nsdx*tc.nsdy*perProc; got != want {
			t.Errorf("%+v: total addressing ops = %d, want %d", tc, got, want)
		}
	}
}

// TestSingleReaderPlan asserts the L-EnKF shape: one dedicated reader
// after the compute ranks, one whole-file addressing operation per member,
// one scatter round per member.
func TestSingleReaderPlan(t *testing.T) {
	const n = 7
	d := dec(t, 120, 60, 4, 2, 8, 4)
	c, err := Compile(LEnKF(d, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.IO) != 1 || c.WorldSize() != d.SubDomains()+1 {
		t.Fatalf("world = %d compute + %d io, want %d + 1", c.NumCompute(), len(c.IO), d.SubDomains())
	}
	r := c.IO[0]
	if r.Rank != d.SubDomains() || r.Name != metrics.IOName(0, 0) {
		t.Errorf("reader rank %d name %q", r.Rank, r.Name)
	}
	if got := r.AddrOps(); got != n {
		t.Errorf("reader addressing ops = %d, want %d (one per whole file)", got, n)
	}
	if len(r.Stages) != n {
		t.Fatalf("reader has %d rounds, want %d", len(r.Stages), n)
	}
	for k, st := range r.Stages {
		if st.Stage != 0 || len(st.Members) != 1 || st.Members[0] != k {
			t.Errorf("round %d: stage %d members %v", k, st.Stage, st.Members)
		}
		if len(st.Comm.Dsts) != d.SubDomains() {
			t.Errorf("round %d scatters to %d ranks, want %d", k, len(st.Comm.Dsts), d.SubDomains())
		}
	}
}

// TestCompiledNamesAndLayout pins the rank layout and the stable proc
// names to the single naming source (metrics.IOName/ComputeName): compute
// ranks first in RankOf order, then I/O ranks group-major.
func TestCompiledNamesAndLayout(t *testing.T) {
	d := dec(t, 120, 60, 3, 2, 8, 4)
	c, err := Compile(SEnKF(d, 12, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for r, cp := range c.Compute {
		i, j := d.CoordsOf(r)
		if cp.Rank != r || cp.Name != metrics.ComputeName(i, j) {
			t.Errorf("compute %d: rank %d name %q, want %q", r, cp.Rank, cp.Name, metrics.ComputeName(i, j))
		}
	}
	for q, ior := range c.IO {
		g, j := q/d.NSdy, q%d.NSdy
		if ior.Rank != c.NumCompute()+q || ior.Group != g || ior.Row != j || ior.Name != metrics.IOName(g, j) {
			t.Errorf("io %d: rank %d group %d row %d name %q", q, ior.Rank, ior.Group, ior.Row, ior.Name)
		}
		if got := c.IOAt(g, j); got == nil || got.Rank != ior.Rank {
			t.Errorf("IOAt(%d,%d) = %v", g, j, got)
		}
	}
	if c.IOAt(5, 0) != nil {
		t.Error("IOAt out of range returned a rank")
	}
}

// TestSpecValidationEdges covers the divisibility edges the compiler must
// reject: SubHeight % L and N % n_cg, plus degenerate parameters.
func TestSpecValidationEdges(t *testing.T) {
	d := dec(t, 120, 60, 4, 2, 8, 4) // SubHeight = 30
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"L=0", SEnKF(d, 12, 0, 2)},
		{"L=-1", SEnKF(d, 12, -1, 2)},
		{"SubHeight%L", SEnKF(d, 12, 4, 2)}, // 30 % 4 != 0
		{"NCg=0", SEnKF(d, 12, 3, 0)},
		{"N%NCg", SEnKF(d, 12, 3, 5)}, // 12 % 5 != 0
		{"N=0", SEnKF(d, 0, 3, 2)},
		{"nil reader", Spec{Algorithm: AlgSEnKF, Dec: d, N: 12, L: 3}},
		{"multi-stage block", Spec{Algorithm: AlgPEnKF, Dec: d, N: 12, L: 2, Reader: BlockReader{}}},
		{"multi-stage single", Spec{Algorithm: AlgLEnKF, Dec: d, N: 12, L: 2, Reader: SingleReader{}}},
	} {
		if _, err := Compile(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The valid boundary cases must compile: L dividing exactly, n_cg = N.
	for _, ok := range []Spec{
		SEnKF(d, 12, 30, 1), // L = SubHeight
		SEnKF(d, 12, 1, 12), // one group per member
		PEnKF(d, 1),
		LEnKF(d, 1),
	} {
		if _, err := Compile(ok); err != nil {
			t.Errorf("%v/%v: rejected: %v", ok.Algorithm, ok.Reader.Name(), err)
		}
	}
}

// TestReadTemplatesMatchGeometry cross-checks the compiled read boxes and
// nominal sizes against the grid layer: bars are full-width and clamped,
// nominal points ignore clamping.
func TestReadTemplatesMatchGeometry(t *testing.T) {
	d := dec(t, 120, 60, 4, 2, 8, 4)
	const n, L, ncg = 12, 3, 2
	c, err := Compile(SEnKF(d, n, L, ncg))
	if err != nil {
		t.Fatal(err)
	}
	barRows := d.SubHeight()/L + 2*d.R.Eta
	for _, r := range c.IO {
		for l, st := range r.Stages {
			lb, err := d.LayerBar(r.Row, l, L)
			if err != nil {
				t.Fatal(err)
			}
			if st.Read.Box != lb {
				t.Errorf("%s stage %d: box %v, want %v", r.Name, l, st.Read.Box, lb)
			}
			if !st.Read.Contiguous || st.Read.AddrOps != 1 {
				t.Errorf("%s stage %d: bar read must be one contiguous addressing op, got %+v", r.Name, l, st.Read)
			}
			if st.Read.NominalPoints != barRows*d.Mesh.NX {
				t.Errorf("%s stage %d: nominal points %d, want %d", r.Name, l, st.Read.NominalPoints, barRows*d.Mesh.NX)
			}
			// Edge rows are clamped on disk, so the exact box can hold
			// fewer rows than the nominal bar — never more.
			if st.Read.Box.Height() > barRows {
				t.Errorf("%s stage %d: clamped box %v exceeds nominal %d rows", r.Name, l, st.Read.Box, barRows)
			}
		}
	}
	// The payload box of every destination is that rank's stage box.
	for _, r := range c.IO {
		for l, st := range r.Stages {
			for _, dst := range st.Comm.Dsts {
				exp, err := d.LayerExpansion(c.Compute[dst].I, c.Compute[dst].J, l, L)
				if err != nil {
					t.Fatal(err)
				}
				if c.Compute[dst].Stages[l].Box != exp {
					t.Errorf("dst %d stage %d: box %v, want %v", dst, l, c.Compute[dst].Stages[l].Box, exp)
				}
			}
		}
	}
}

// TestExpectedDAGShape pins the structural signature each algorithm's
// interpreters must reproduce.
func TestExpectedDAGShape(t *testing.T) {
	d := dec(t, 120, 60, 4, 2, 8, 4)
	const n = 12

	s, err := Compile(SEnKF(d, n, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	dag := s.ExpectedDAG()
	if len(dag) != s.WorldSize() {
		t.Fatalf("S-EnKF DAG has %d tracks, want %d", len(dag), s.WorldSize())
	}
	io := dag[metrics.IOName(1, 1)]
	if len(io.Spans) != 6 || io.Spans[0] != (DAGNode{Phase: "read", Stage: 0}) || io.Spans[5] != (DAGNode{Phase: "comm", Stage: 2}) {
		t.Errorf("S-EnKF io track: %+v", io.Spans)
	}
	cp := dag[metrics.ComputeName(0, 0)]
	if len(cp.Spans) != 3 || fmt.Sprint(cp.Ready) != "[0 1 2]" {
		t.Errorf("S-EnKF compute track: spans %+v ready %v", cp.Spans, cp.Ready)
	}

	p, err := Compile(PEnKF(d, n))
	if err != nil {
		t.Fatal(err)
	}
	pcp := p.ExpectedDAG()[metrics.ComputeName(0, 0)]
	if len(pcp.Spans) != n+1 || len(pcp.Ready) != 0 {
		t.Errorf("P-EnKF compute track: %d spans %d ready, want %d/0", len(pcp.Spans), len(pcp.Ready), n+1)
	}

	le, err := Compile(LEnKF(d, n))
	if err != nil {
		t.Fatal(err)
	}
	ldag := le.ExpectedDAG()
	lio := ldag[metrics.IOName(0, 0)]
	if len(lio.Spans) != 2*n {
		t.Errorf("L-EnKF reader track: %d spans, want %d", len(lio.Spans), 2*n)
	}
	lcp := ldag[metrics.ComputeName(0, 0)]
	if len(lcp.Spans) != 1 || len(lcp.Ready) != 0 {
		t.Errorf("L-EnKF compute track: %+v", lcp)
	}
}

// TestDiffDAG exercises the comparison on each mismatch class.
func TestDiffDAG(t *testing.T) {
	base := func() map[string]*TrackDAG {
		return map[string]*TrackDAG{
			"io/g0/r0":  {Spans: []DAGNode{{Phase: "read", Stage: 0}, {Phase: "comm", Stage: 0}}},
			"comp/x0y0": {Spans: []DAGNode{{Phase: "compute", Stage: 0}}, Ready: []int{0}},
		}
	}
	if err := DiffDAG(base(), base()); err != nil {
		t.Errorf("identical DAGs differ: %v", err)
	}
	b := base()
	b["io/g0/r1"] = &TrackDAG{}
	if err := DiffDAG(base(), b); err == nil {
		t.Error("extra track not detected")
	}
	b = base()
	b["io/g0/r0"].Spans[1].Stage = 1
	if err := DiffDAG(base(), b); err == nil {
		t.Error("stage mismatch not detected")
	}
	b = base()
	b["comp/x0y0"].Ready = []int{1}
	if err := DiffDAG(base(), b); err == nil {
		t.Error("release mismatch not detected")
	}
	b = base()
	b["comp/x0y0"].Spans = nil
	if err := DiffDAG(base(), b); err == nil {
		t.Error("span-count mismatch not detected")
	}
}
