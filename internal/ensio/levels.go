package ensio

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"

	"senkf/internal/grid"
)

// Multi-level member files realise the paper's 3-D states: the §5.1
// configuration has 30 vertical levels, giving the Table-1 per-grid-point
// volume h = 30 × 8 = 240 bytes. Values are interleaved by level within
// each grid point — layout [y][x][level] — so a latitude bar carries *all*
// levels of its rows contiguously: one addressing operation still fetches
// the complete 3-D bar, exactly the property the bar-reading co-design
// exploits (the block reading approach keeps paying one seek per row, each
// row now h times larger).
//
// The header's reserved field stores the level count; 0 (files written by
// WriteMember) means 1 level, so single-level files remain valid.

// LevelCount returns the number of vertical levels (≥ 1).
func (h Header) LevelCount() int {
	if h.Levels <= 0 {
		return 1
	}
	return h.Levels
}

// WriteMemberLevels writes a multi-level member: levels[l] is the row-major
// n_y × n_x field of vertical level l. The header's Levels field is set
// from len(levels).
func WriteMemberLevels(path string, h Header, levels [][]float64) error {
	if h.NX <= 0 || h.NY <= 0 {
		return fmt.Errorf("ensio: invalid dimensions %dx%d", h.NX, h.NY)
	}
	if len(levels) == 0 {
		return fmt.Errorf("ensio: no levels")
	}
	for l, f := range levels {
		if len(f) != h.NX*h.NY {
			return fmt.Errorf("ensio: level %d has %d points, header says %d", l, len(f), h.NX*h.NY)
		}
	}
	h.Levels = len(levels)
	// Staged and renamed like WriteMember: a crash mid-write never leaves
	// a torn multi-level member behind a valid path.
	return atomicCreate(path, func(f *os.File) error {
		if _, err := f.Write(putHeader(h, h.Levels, 0)); err != nil {
			return fmt.Errorf("ensio: write header: %w", err)
		}
		crc := crc64.New(crcTable)
		nl := h.Levels
		buf := make([]byte, 8*h.NX*nl)
		for y := 0; y < h.NY; y++ {
			for x := 0; x < h.NX; x++ {
				for l := 0; l < nl; l++ {
					v := levels[l][y*h.NX+x]
					binary.LittleEndian.PutUint64(buf[8*(x*nl+l):], math.Float64bits(v))
				}
			}
			crc.Write(buf)
			if _, err := f.Write(buf); err != nil {
				return fmt.Errorf("ensio: write row %d: %w", y, err)
			}
		}
		var sum [8]byte
		binary.LittleEndian.PutUint64(sum[:], crc.Sum64())
		if _, err := f.WriteAt(sum[:], checksumOffset); err != nil {
			return fmt.Errorf("ensio: write checksum: %w", err)
		}
		return nil
	})
}

// WriteEnsembleLevels writes a multi-level ensemble: members[k][l] is
// member k's level-l field.
func WriteEnsembleLevels(dir string, m grid.Mesh, members [][][]float64) ([]string, error) {
	paths := make([]string, len(members))
	for k, levels := range members {
		p := MemberPath(dir, k)
		if err := WriteMemberLevels(p, Header{NX: m.NX, NY: m.NY, Member: k}, levels); err != nil {
			return nil, fmt.Errorf("ensio: member %d: %w", k, err)
		}
		paths[k] = p
	}
	return paths, nil
}
