package plan

import (
	"maps"
	"testing"
)

// TestInvertTagRoundTrip checks that InvertTag recovers every
// (stage, member, level) triple Tag can produce, and rejects everything
// outside the plan tag space — collectives (negative) and the result
// gather (beyond the stage range) must land in the "other" bucket.
func TestInvertTagRoundTrip(t *testing.T) {
	specs := []Spec{
		SEnKF(dec(t, 48, 24, 4, 2, 4, 2), 8, 2, 2),
		SEnKF(dec(t, 48, 24, 4, 2, 4, 2), 8, 2, 2).WithLevels(3),
		PEnKF(dec(t, 48, 24, 4, 2, 4, 2), 8),
		LEnKF(dec(t, 48, 24, 4, 2, 4, 2), 8).WithLevels(2),
	}
	for _, s := range specs {
		lv := s.LevelCount()
		for stage := 0; stage < s.L; stage++ {
			for member := 0; member < s.N; member++ {
				for level := 0; level < lv; level++ {
					tag := s.Tag(stage, member, level)
					gs, gm, gl, ok := s.InvertTag(tag)
					if !ok || gs != stage || gm != member || gl != level {
						t.Fatalf("%s L=%d N=%d levels=%d: InvertTag(Tag(%d,%d,%d)) = (%d,%d,%d,%v)",
							s.Algorithm, s.L, s.N, lv, stage, member, level, gs, gm, gl, ok)
					}
				}
			}
		}
		for _, tag := range []int{-1, -42, s.L * s.N * lv, s.L*s.N*lv + 7, 1 << 20} {
			if _, _, _, ok := s.InvertTag(tag); ok {
				t.Errorf("%s: InvertTag(%d) accepted a tag outside [0, %d)",
					s.Algorithm, tag, s.L*s.N*lv)
			}
		}
	}
}

// TestEdgeMatrixRecordAndDiff exercises the matrix accumulation and the
// first-difference report.
func TestEdgeMatrixRecordAndDiff(t *testing.T) {
	k1 := EdgeKey{Src: 0, Dst: 2, Stage: 1, Level: 0}
	k2 := EdgeKey{Src: 1, Dst: 2, Stage: 0, Level: 1}
	m := EdgeMatrix{}
	m.Record(k1, 100)
	m.Record(k1, 50)
	m.Record(k2, 10)
	if got := m[k1]; got != (EdgeStats{Msgs: 2, Bytes: 150}) {
		t.Errorf("edge %s accumulated %+v, want 2 msgs / 150 bytes", k1, got)
	}
	if tot := m.Totals(); tot != (EdgeStats{Msgs: 3, Bytes: 160}) {
		t.Errorf("totals %+v, want 3 msgs / 160 bytes", tot)
	}

	c := m.Clone()
	if !maps.Equal(m, c) {
		t.Fatalf("clone differs: %v", m.Diff(c))
	}
	c.Record(k2, 5)
	if maps.Equal(m, c) {
		t.Error("matrices with different stats compare equal")
	}
	delete(c, k1)
	if err := m.Diff(c); err == nil {
		t.Error("Diff missed a removed edge")
	}
	extra := m.Clone()
	extra.Record(EdgeKey{Src: 9, Dst: 9, Stage: 0, Level: 0}, 1)
	if err := m.Diff(extra); err == nil {
		t.Error("Diff missed an extra edge in the other matrix")
	}
}

// TestExpectedEdgesMatchStageMsgBytes hand-counts the expected matrix of a
// compiled S-EnKF plan: every (io rank, stage, dst, level) edge carries one
// message per member of the reader's group, each sized by StageMsgBytes.
func TestExpectedEdgesMatchStageMsgBytes(t *testing.T) {
	const (
		n      = 8
		layers = 2
		ncg    = 2
		levels = 3
	)
	c, err := Compile(SEnKF(dec(t, 48, 24, 4, 2, 4, 2), n, layers, ncg).WithLevels(levels))
	if err != nil {
		t.Fatal(err)
	}
	m := ExpectedEdges(c)
	if len(m) == 0 {
		t.Fatal("S-EnKF expected matrix is empty")
	}
	want := EdgeMatrix{}
	for _, r := range c.IO {
		for _, st := range r.Stages {
			for _, dst := range st.Comm.Dsts {
				for lvl := 0; lvl < levels; lvl++ {
					k := EdgeKey{Src: r.Rank, Dst: dst, Stage: st.Stage, Level: lvl}
					es := want[k]
					es.Msgs += int64(len(st.Members))
					es.Bytes += int64(len(st.Members)) * StageMsgBytes(c, dst, st.Stage)
					want[k] = es
				}
			}
		}
	}
	if err := want.Diff(m); err != nil {
		t.Errorf("hand count vs ExpectedEdges: %v", err)
	}

	// Block reading has no dedicated I/O ranks, hence no plan edges.
	pc, err := Compile(PEnKF(dec(t, 48, 24, 4, 2, 4, 2), n))
	if err != nil {
		t.Fatal(err)
	}
	if got := ExpectedEdges(pc); len(got) != 0 {
		t.Errorf("P-EnKF expected matrix has %d edges, want none", len(got))
	}
}
