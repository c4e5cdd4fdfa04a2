package ensio

import (
	"testing"

	"senkf/internal/grid"
)

func writeTestLevels(t *testing.T, nx, ny, nl int) (string, [][]float64) {
	t.Helper()
	dir := t.TempDir()
	levels := make([][]float64, nl)
	for l := range levels {
		levels[l] = make([]float64, nx*ny)
		for i := range levels[l] {
			levels[l][i] = float64(l*10000 + i)
		}
	}
	path := MemberPath(dir, 0)
	if err := WriteMemberLevels(path, Header{NX: nx, NY: ny}, levels); err != nil {
		t.Fatal(err)
	}
	return path, levels
}

func TestLevelsRoundTrip(t *testing.T) {
	path, levels := writeTestLevels(t, 10, 6, 4)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Header.LevelCount() != 4 {
		t.Fatalf("level count %d", m.Header.LevelCount())
	}
	got, err := m.ReadBarLevels(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for l := range levels {
		for i := range levels[l] {
			if got[l][i] != levels[l][i] {
				t.Fatalf("level %d value %d: %g want %g", l, i, got[l][i], levels[l][i])
			}
		}
	}
}

func TestLevelsBarIsOneSeek(t *testing.T) {
	path, _ := writeTestLevels(t, 16, 12, 5)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ReadBarLevels(3, 9); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Seeks != 1 {
		t.Errorf("bar read of 5 levels took %d seeks, want 1", s.Seeks)
	}
	// Payload is levels × larger.
	if s := m.Stats(); s.BytesRead != int64(8*6*16*5) {
		t.Errorf("bytes read %d", s.BytesRead)
	}
}

func TestLevelsBlockMatchesBar(t *testing.T) {
	path, levels := writeTestLevels(t, 12, 8, 3)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := grid.Box{X0: 3, X1: 9, Y0: 2, Y1: 6}
	blk, err := m.ReadBlockLevels(b)
	if err != nil {
		t.Fatal(err)
	}
	for l := range blk {
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				got := blk[l][(y-b.Y0)*b.Width()+(x-b.X0)]
				want := levels[l][y*12+x]
				if got != want {
					t.Fatalf("level %d at (%d,%d): %g want %g", l, x, y, got, want)
				}
			}
		}
	}
	// Narrow block: one seek per row.
	if s := m.Stats(); s.Seeks != b.Height() {
		t.Errorf("narrow multi-level block took %d seeks, want %d", s.Seeks, b.Height())
	}
}

func TestSingleLevelAPIGuards(t *testing.T) {
	path, _ := writeTestLevels(t, 8, 4, 2)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ReadBar(0, 2); err == nil {
		t.Error("ReadBar on a 2-level file accepted")
	}
}

func TestSingleLevelFilesStillWork(t *testing.T) {
	// Files written by WriteMember read back through both APIs.
	dir := t.TempDir()
	field := make([]float64, 8*4)
	for i := range field {
		field[i] = float64(i)
	}
	path := MemberPath(dir, 1)
	if err := WriteMember(path, Header{NX: 8, NY: 4, Member: 1}, field); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Header.LevelCount() != 1 {
		t.Fatalf("level count %d", m.Header.LevelCount())
	}
	viaLevels, err := m.ReadBarLevels(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	viaBar, err := m.ReadBar(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range field {
		if viaLevels[0][i] != field[i] || viaBar[i] != field[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestWriteMemberLevelsValidation(t *testing.T) {
	dir := t.TempDir()
	p := MemberPath(dir, 0)
	if err := WriteMemberLevels(p, Header{NX: 4, NY: 4}, nil); err == nil {
		t.Error("no levels accepted")
	}
	if err := WriteMemberLevels(p, Header{NX: 0, NY: 4}, [][]float64{{1}}); err == nil {
		t.Error("bad dimensions accepted")
	}
	if err := WriteMemberLevels(p, Header{NX: 2, NY: 2}, [][]float64{{1, 2, 3}}); err == nil {
		t.Error("short level accepted")
	}
}

func TestReadBarLevelsBounds(t *testing.T) {
	path, _ := writeTestLevels(t, 8, 4, 2)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range [][2]int{{-1, 2}, {0, 5}, {3, 3}} {
		if _, err := m.ReadBarLevels(c[0], c[1]); err == nil {
			t.Errorf("ReadBarLevels(%d,%d) accepted", c[0], c[1])
		}
	}
	if _, err := m.ReadBlockLevels(grid.Box{X0: 0, X1: 9, Y0: 0, Y1: 2}); err == nil {
		t.Error("out-of-range block accepted")
	}
}
