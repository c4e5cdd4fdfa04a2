package ensio

import "senkf/internal/grid"

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

// WriteEnsembleLevels writes a multi-level ensemble: members[k][l] is
// member k's level-l field. Like WriteEnsemble it returns the paths, or no
// paths and the error of the lowest failing member.
func WriteEnsembleLevels(dir string, m grid.Mesh, members [][][]float64) ([]string, error) {
	paths := make([]string, len(members))
	for k := range paths {
		paths[k] = MemberPath(dir, k)
	}
	err := WriteBatch(len(members), func(k int) (string, Header, [][]float64) {
		return paths[k], Header{NX: m.NX, NY: m.NY, Member: k}, members[k]
	}, nil)
	if err != nil {
		return nil, err
	}
	return paths, nil
}
