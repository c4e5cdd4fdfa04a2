package plan

import (
	"fmt"
	"strings"
	"testing"
)

// TestExpectedDAGLevelsInvariant sweeps levels × n_cg and asserts the level
// dimension's central structural property: a multilevel plan has exactly the
// same ExpectedDAG as its single-level twin — levels change the weights of
// reads, messages and analyses, never the span/release topology — while the
// compiled read templates carry the level factor explicitly.
func TestExpectedDAGLevelsInvariant(t *testing.T) {
	const n = 8
	d := dec(t, 48, 24, 4, 2, 4, 2)
	specs := func(levels int) []Spec {
		return []Spec{
			SEnKF(d, n, 2, 2).WithLevels(levels),
			SEnKF(d, n, 3, 4).WithLevels(levels),
			PEnKF(d, n).WithLevels(levels),
		}
	}
	base := specs(0)
	for _, levels := range []int{1, 2, 3, 5} {
		for i, s := range specs(levels) {
			t.Run(fmt.Sprintf("%s-L%d-lv%d", s.Algorithm, s.L, levels), func(t *testing.T) {
				c, err := Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				c1, err := Compile(base[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := DiffDAG(c.ExpectedDAG(), c1.ExpectedDAG()); err != nil {
					t.Errorf("levels=%d changed the structural DAG: %v", levels, err)
				}
				for _, r := range append([]IORank{}, c.IO...) {
					for _, st := range r.Stages {
						if st.Read.Levels != levels {
							t.Errorf("reader %s stage %d: template levels %d, want %d", r.Name, st.Stage, st.Read.Levels, levels)
						}
						if got, want := st.Read.PointsAllLevels(), st.Read.NominalPoints*levels; got != want {
							t.Errorf("reader %s stage %d: PointsAllLevels %d, want %d", r.Name, st.Stage, got, want)
						}
					}
				}
				for _, r := range c.Compute {
					for _, st := range r.Stages {
						// Message stages have no read template; only
						// self-read stages carry the level factor.
						if st.Expect == 0 && r.Self.Read.Levels != levels {
							t.Errorf("proc %s stage %d: template levels %d, want %d", r.Name, st.Stage, r.Self.Read.Levels, levels)
						}
					}
				}
				// The plan dump (and hence runlog.PlanHash) mentions levels
				// only when the dimension is real, so single-level plan
				// hashes are stable across the refactor.
				if has := strings.Contains(c.String(), "levels"); has != (levels > 1) {
					t.Errorf("levels=%d: String() = %q, levels clause present = %v", levels, c.String(), has)
				}
			})
		}
	}
}

// TestTagSpace asserts the unified tag derivation: bit-compatibility with
// the classic stage·n + member tag at one level, and injectivity over the
// (stage, member, level) grid.
func TestTagSpace(t *testing.T) {
	const n, nl, stages = 8, 3, 4
	for l := 0; l < stages; l++ {
		for k := 0; k < n; k++ {
			if got, want := Tag(l, n, 1, k, 0), l*n+k; got != want {
				t.Fatalf("Tag(%d,%d,1,%d,0) = %d, want classic %d", l, n, k, got, want)
			}
		}
	}
	seen := map[int][3]int{}
	s := SEnKF(dec(t, 48, 24, 4, 2, 4, 2), n, stages, 2).WithLevels(nl)
	for l := 0; l < stages; l++ {
		for k := 0; k < n; k++ {
			for lvl := 0; lvl < nl; lvl++ {
				tag := s.Tag(l, k, lvl)
				if prev, dup := seen[tag]; dup {
					t.Fatalf("tag %d assigned to both %v and %v", tag, prev, [3]int{l, k, lvl})
				}
				seen[tag] = [3]int{l, k, lvl}
			}
		}
	}
}

// TestLevelValidation covers the spec- and problem-level guards of the
// level dimension.
func TestLevelValidation(t *testing.T) {
	d := dec(t, 48, 24, 4, 2, 4, 2)
	if err := SEnKF(d, 8, 2, 2).WithLevels(-1).Validate(); err == nil {
		t.Error("negative level count accepted")
	}
	if err := LEnKF(d, 8).WithLevels(3).Validate(); err == nil {
		t.Error("multilevel single-reader spec accepted")
	}
	if err := LEnKF(d, 8).WithLevels(1).Validate(); err != nil {
		t.Errorf("single-level L-EnKF rejected: %v", err)
	}
}
