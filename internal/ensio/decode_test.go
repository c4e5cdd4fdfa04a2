package ensio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"senkf/internal/grid"
)

// decodeLevelCounts are the level counts the decoder is checked and timed
// at: one level (a pass of its own), two (one paired pass), three (a paired
// pass and an odd one) and thirty (the paper's column).
var decodeLevelCounts = []int{1, 2, 3, 30}

// referenceDecode is decode element by element: value l of point x of row r
// is the 8 bytes at 8·((r·rowWidth + x0 + x)·levels + l).
func referenceDecode(dst [][]float64, at int, raw []byte, rowWidth, x0, x1, rows int) {
	nl, w := len(dst), x1-x0
	for r := 0; r < rows; r++ {
		for l := range dst {
			for x := 0; x < w; x++ {
				bits := binary.LittleEndian.Uint64(raw[8*((r*rowWidth+x0+x)*nl+l):])
				dst[l][at+r*w+x] = math.Float64frombits(bits)
			}
		}
	}
}

// randomRaw returns n bytes of random data: every bit pattern, NaNs
// included, so a comparison of bits catches a value landing one slot off.
func randomRaw(rng *rand.Rand, n int) []byte {
	raw := make([]byte, n)
	rng.Read(raw)
	return raw
}

// sentinelLevels returns nl slices of n values, each the sentinel, so a
// write outside [at, at+rows·w) shows.
func sentinelLevels(nl, n int) [][]float64 {
	out := make([][]float64, nl)
	for l := range out {
		out[l] = make([]float64, n)
		for i := range out[l] {
			out[l][i] = -7.25
		}
	}
	return out
}

// TestDecodeMatchesPerElement drives decode directly over odd widths, cuts
// that start past the first column, several rows and a non-zero offset into
// the destination: every level's bits must equal the per-element reference,
// and nothing outside the decoded range may be written.
func TestDecodeMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, nl := range decodeLevelCounts {
		for c := 0; c < 40; c++ {
			rowWidth := 1 + 2*rng.Intn(12) // odd
			x0 := rng.Intn(rowWidth)
			if c%2 == 1 && rowWidth > 1 {
				x0 = 1 + rng.Intn(rowWidth-1) // past the first column
			}
			x1 := x0 + 1 + rng.Intn(rowWidth-x0)
			rows := 1 + rng.Intn(5)
			at := rng.Intn(7)
			raw := randomRaw(rng, 8*nl*rowWidth*rows)
			n := at + rows*(x1-x0) + rng.Intn(4)
			got, want := sentinelLevels(nl, n), sentinelLevels(nl, n)
			decode(got, at, raw, rowWidth, x0, x1, rows)
			referenceDecode(want, at, raw, rowWidth, x0, x1, rows)
			for l := range got {
				if !sameBits(got[l], want[l]) {
					t.Fatalf("%d levels, row width %d, columns [%d,%d), %d rows, at %d: level %d differs from the per-element reference",
						nl, rowWidth, x0, x1, rows, at, l)
				}
			}
		}
	}
}

// TestDecodeThroughReads checks the decoder through both readers: boxes cut
// from a bar by ReadBarBoxes, and blocks read row by row by ReadBlockLevels,
// on an odd-width file at every level count, against the fields it was
// written from.
func TestDecodeThroughReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3535))
	dir := t.TempDir()
	const nx, ny = 13, 9
	for _, nl := range decodeLevelCounts {
		levels := make([][]float64, nl)
		for l := range levels {
			levels[l] = make([]float64, nx*ny)
			for i := range levels[l] {
				levels[l][i] = math.Float64frombits(rng.Uint64())
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("decode_%d.senk", nl))
		writeGeneratedMember(t, path, Version, nx, ny, levels)
		m, err := OpenMember(path)
		if err != nil {
			t.Fatal(err)
		}
		boxes := []grid.Box{
			{X0: 0, X1: nx, Y0: 2, Y1: 7},
			{X0: 3, X1: 10, Y0: 2, Y1: 5},
			{X0: 5, X1: 6, Y0: 4, Y1: 7},
			{X0: 1, X1: nx, Y0: 6, Y1: 7},
		}
		bar, err := readBoxes(m, 2, 7, boxes)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range boxes {
			for l := range levels {
				if !sameBits(bar[i][l], cutBox(levels[l], nx, b)) {
					t.Errorf("%d levels: ReadBarBoxes box %v level %d differs from the field", nl, b, l)
				}
			}
			block, err := m.ReadBlockLevels(b)
			if err != nil {
				t.Fatal(err)
			}
			for l := range levels {
				if !sameBits(block[l], cutBox(levels[l], nx, b)) {
					t.Errorf("%d levels: ReadBlockLevels %v level %d differs from the field", nl, b, l)
				}
			}
		}
		m.Close()
	}
}

// BenchmarkDecode times decode on a 60×17 box cut from a 240-wide bar, the
// shape of one stream stage box, at one, two and thirty levels. B/s is the
// bytes of the box decoded.
func BenchmarkDecode(b *testing.B) {
	const rowWidth, x0, x1, rows = 240, 60, 120, 17
	for _, nl := range []int{1, 2, 30} {
		b.Run(fmt.Sprintf("levels=%d", nl), func(b *testing.B) {
			raw := randomRaw(rand.New(rand.NewSource(1)), 8*nl*rowWidth*rows)
			dst := sentinelLevels(nl, (x1-x0)*rows)
			b.SetBytes(int64(8 * nl * (x1 - x0) * rows))
			for i := 0; i < b.N; i++ {
				decode(dst, 0, raw, rowWidth, x0, x1, rows)
			}
		})
	}
}
