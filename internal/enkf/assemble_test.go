package enkf

import (
	"math/rand"
	"strings"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/workload"
)

// tilings are the (n_sdx, n_sdy) decompositions of core's planShapes table,
// the sub-domain tilings TestSEnKFAcrossPlanShapes gathers over.
var tilings = [][2]int{{4, 2}, {2, 2}, {1, 1}, {6, 3}, {2, 4}}

// flatBlock copies block b into the form a gathered result arrives in: rows
// over one member-major slice.
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

// oneByOne hands blocks to AssembleFrom in the given order and counts how
// many it was asked for.
func oneByOne(blocks []*Block, asked *int) func() (*Block, error) {
	return func() (*Block, error) {
		*asked++
		if len(blocks) == 0 {
			return nil, nil
		}
		b := blocks[0]
		blocks = blocks[1:]
		return b, nil
	}
}

func TestAssembleFromMatchesAssembleOnPlanTilings(t *testing.T) {
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
		want, err := Assemble(m, n, blocks)
		if err != nil {
			t.Fatalf("tiling %v: Assemble: %v", tl, err)
		}
		if d := MaxAbsDiffFields(want, full.Data); d != 0 {
			t.Errorf("tiling %v: Assemble does not restore the fields it was cut from (off by %g)", tl, d)
		}
		// Arrival order is whatever the gather sees.
		rng.Shuffle(len(flats), func(a, b int) { flats[a], flats[b] = flats[b], flats[a] })
		asked := 0
		got, err := AssembleFrom(m, n, oneByOne(flats, &asked))
		if err != nil {
			t.Fatalf("tiling %v: AssembleFrom: %v", tl, err)
		}
		if d := MaxAbsDiffFields(got, want); d != 0 {
			t.Errorf("tiling %v: incremental flat placement differs from Assemble by %g", tl, d)
		}
		if asked != len(flats)+1 {
			t.Errorf("tiling %v: asked for %d blocks, want %d and the end", tl, asked, len(flats))
		}

		// The exactly-once coverage check, by either entry point.
		overlapping := append(append([]*Block(nil), blocks...), blocks[len(blocks)-1])
		missing := blocks[:len(blocks)-1]
		for name, tc := range map[string]struct {
			blocks []*Block
			want   string
		}{
			"overlapping": {overlapping, "covered twice"},
			"missing":     {missing, "not covered"},
		} {
			_, errAll := Assemble(m, n, tc.blocks)
			_, errInc := AssembleFrom(m, n, oneByOne(tc.blocks, new(int)))
			for entry, err := range map[string]error{"Assemble": errAll, "AssembleFrom": errInc} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("tiling %v, %s blocks: %s returned %v, want a %q error", tl, name, entry, err, tc.want)
				}
			}
			if errAll != nil && errInc != nil && errAll.Error() != errInc.Error() {
				t.Errorf("tiling %v, %s blocks: %q from Assemble, %q from AssembleFrom", tl, name, errAll, errInc)
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
