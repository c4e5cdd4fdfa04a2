package ensio

import (
	"fmt"

	"senkf/internal/grid"
	"senkf/internal/par"
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
// The header's reserved field stores the level count; a stored 0 reads as 1
// level, so files from before the field was used remain valid.

// LevelCount returns the number of vertical levels (≥ 1).
func (h Header) LevelCount() int {
	if h.Levels <= 0 {
		return 1
	}
	return h.Levels
}

// WriteMemberLevels writes a multi-level member: levels[l] is the row-major
// n_y × n_x field of vertical level l. The header's level count is
// len(levels). Staged and renamed like WriteMember: a crash mid-write never
// leaves a torn multi-level member behind a valid path.
func WriteMemberLevels(path string, h Header, levels [][]float64) error {
	image, err := encodeMember(h, levels)
	if err != nil {
		return err
	}
	defer scratch.Put(image)
	return atomicCreate(path, *image)
}

// batchWriters is how many member files WriteEnsembleLevels keeps in
// flight. Each file is fsynced on its own, and the journal commits
// concurrent fsyncs together: 33 files of 64 KiB took 42 ms one at a time,
// 30 ms two at a time, 23 ms with 4, 6 or 8 in flight and 26 ms with 16 or
// all 33 (EXPERIMENTS.md, "Record: PR 17"). The gain comes from the storage
// stack, not from cores, so the count does not follow GOMAXPROCS; it is the
// smallest count on the plateau, because it is also how many pooled images
// are alive at once.
const batchWriters = 4

// WriteEnsembleLevels writes a multi-level ensemble: members[k][l] is
// member k's level-l field. Each member file is written exactly as
// WriteMemberLevels writes it (staged, fsynced, renamed), a small fixed
// number at a time. Like WriteEnsemble it returns the paths, or no paths
// and the error of the lowest failing member, naming it; files already
// renamed stay.
func WriteEnsembleLevels(dir string, m grid.Mesh, members [][][]float64) ([]string, error) {
	paths := make([]string, len(members))
	for k := range paths {
		paths[k] = MemberPath(dir, k)
	}
	err := par.Do(len(members), batchWriters, func(_, k int) error {
		image, err := encodeMember(Header{NX: m.NX, NY: m.NY, Member: k}, members[k])
		if err != nil {
			return fmt.Errorf("ensio: file %d (%s): %w", k, paths[k], err)
		}
		defer scratch.Put(image)
		if err := atomicCreate(paths[k], *image); err != nil {
			return fmt.Errorf("ensio: file %d (%s): %w", k, paths[k], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return paths, nil
}
