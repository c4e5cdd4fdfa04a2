package enkf

import (
	"math/rand"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/workload"
)

// tilings are the (n_sdx, n_sdy) decompositions of core's planShapes table.
var tilings = [][2]int{{4, 2}, {2, 2}, {1, 1}, {6, 3}, {2, 4}}

// flatBlock copies block b into rows over one member-major slice.
func flatBlock(b *Block) *Block {
	pts := b.Box.Points()
	flat := make([]float64, len(b.Data)*pts)
	rows := make([][]float64, len(b.Data))
	for k, d := range b.Data {
		rows[k] = flat[k*pts : (k+1)*pts]
		copy(rows[k], d)
	}
	return &Block{Box: b.Box, Data: rows}
}

// TestAssembleOnPlanTilings cuts random fields by each tiling and puts them
// back: from sub-blocks in plan order, from member-major copies in any order,
// and not at all when a tile is doubled or missing.
func TestAssembleOnPlanTilings(t *testing.T) {
	ps := workload.TestScale
	m, err := ps.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	rng := rand.New(rand.NewSource(16))
	full := NewBlock(grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, n)
	for _, f := range full.Data {
		for i := range f {
			f[i] = rng.NormFloat64()
		}
	}
	for _, tl := range tilings {
		dec, err := grid.NewDecomposition(m, tl[0], tl[1], ps.Radius())
		if err != nil {
			t.Fatalf("tiling %v: %v", tl, err)
		}
		var blocks, flats []*Block
		for j := 0; j < dec.NSdy; j++ {
			for i := 0; i < dec.NSdx; i++ {
				sb, err := full.SubBlock(dec.SubDomain(i, j))
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, sb)
				flats = append(flats, flatBlock(sb))
			}
		}
		rng.Shuffle(len(flats), func(a, b int) { flats[a], flats[b] = flats[b], flats[a] })
		for name, tc := range map[string]struct {
			blocks []*Block
			want   string // error text; empty: the fields come back
		}{
			"plan order":    {blocks, ""},
			"flat shuffled": {flats, ""},
			"overlapping":   {append(append([]*Block(nil), blocks...), blocks[len(blocks)-1]), "covered twice"},
			"missing":       {blocks[:len(blocks)-1], "not covered"},
		} {
			got, err := Assemble(m, n, tc.blocks)
			switch {
			case tc.want != "":
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("tiling %v, %s blocks: Assemble returned %v, want a %q error", tl, name, err, tc.want)
				}
			case err != nil:
				t.Errorf("tiling %v, %s blocks: %v", tl, name, err)
			default:
				if d := MaxAbsDiffFields(got, full.Data); d != 0 {
					t.Errorf("tiling %v, %s blocks: Assemble does not restore the fields it was cut from (off by %g)", tl, name, d)
				}
			}
		}
	}
}

// TestAssembleNamesTheFirstBadPoint pins the coverage errors to the point
// they named before placement went row by row.
func TestAssembleNamesTheFirstBadPoint(t *testing.T) {
	m, _ := grid.NewMesh(4, 3)
	left := NewBlock(grid.Box{X0: 0, X1: 3, Y0: 0, Y1: 3}, 2)
	right := NewBlock(grid.Box{X0: 2, X1: 4, Y0: 1, Y1: 3}, 2)
	if _, err := Assemble(m, 2, []*Block{left, right}); err == nil || err.Error() != "enkf: point (2,1) covered twice" {
		t.Errorf("overlap reported as %v", err)
	}
	if _, err := Assemble(m, 2, []*Block{left}); err == nil || err.Error() != "enkf: point (3,0) not covered" {
		t.Errorf("gap reported as %v", err)
	}
	if _, err := Assemble(m, 3, []*Block{left}); err == nil || !strings.Contains(err.Error(), "has 2 members, want 3") {
		t.Errorf("wrong member count reported as %v", err)
	}
	outside := NewBlock(grid.Box{X0: 2, X1: 5, Y0: 0, Y1: 1}, 2)
	if _, err := Assemble(m, 2, []*Block{outside}); err == nil || !strings.Contains(err.Error(), "outside the 4x3 mesh") {
		t.Errorf("block outside the mesh reported as %v", err)
	}
	short := &Block{Box: left.Box, Data: [][]float64{make([]float64, 9), make([]float64, 8)}}
	if _, err := Assemble(m, 2, []*Block{short}); err == nil || !strings.Contains(err.Error(), "holds 8 values of member 1, want 9") {
		t.Errorf("short member row reported as %v", err)
	}
}
