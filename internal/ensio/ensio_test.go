package ensio

import (
	"os"
	"path/filepath"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/workload"
)

func writeTestMember(t *testing.T, nx, ny int) (string, []float64) {
	t.Helper()
	dir := t.TempDir()
	field := make([]float64, nx*ny)
	for i := range field {
		field[i] = float64(i) * 0.5
	}
	path := MemberPath(dir, 3)
	if err := WriteMember(path, Header{NX: nx, NY: ny, Member: 3}, field); err != nil {
		t.Fatal(err)
	}
	return path, field
}

func TestWriteReadRoundTrip(t *testing.T) {
	path, field := writeTestMember(t, 12, 8)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Header.NX != 12 || m.Header.NY != 8 || m.Header.Member != 3 {
		t.Fatalf("header = %+v", m.Header)
	}
	got, err := m.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range field {
		if got[i] != field[i] {
			t.Fatalf("value %d: %g want %g", i, got[i], field[i])
		}
	}
}

func TestWriteMemberValidation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteMember(filepath.Join(dir, "x"), Header{NX: 0, NY: 4}, nil); err == nil {
		t.Error("expected dimension error")
	}
	if err := WriteMember(filepath.Join(dir, "x"), Header{NX: 2, NY: 2}, make([]float64, 3)); err == nil {
		t.Error("expected length error")
	}
}

func TestReadBarMatchesRows(t *testing.T) {
	path, field := writeTestMember(t, 10, 6)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bar, err := m.ReadBar(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bar) != 3*10 {
		t.Fatalf("bar length %d", len(bar))
	}
	for i, v := range bar {
		if v != field[2*10+i] {
			t.Fatalf("bar value %d wrong", i)
		}
	}
	if s := m.Stats(); s.Seeks != 1 {
		t.Errorf("bar read took %d seeks, want 1", s.Seeks)
	}
}

func TestReadBarBounds(t *testing.T) {
	path, _ := writeTestMember(t, 10, 6)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range [][2]int{{-1, 3}, {0, 7}, {4, 4}, {5, 2}} {
		if _, err := m.ReadBar(c[0], c[1]); err == nil {
			t.Errorf("ReadBar(%d,%d): expected error", c[0], c[1])
		}
	}
}

func TestReadBlockMatchesRectangle(t *testing.T) {
	path, field := writeTestMember(t, 10, 6)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := grid.Box{X0: 3, X1: 7, Y0: 1, Y1: 5}
	lv, err := m.ReadBlockLevels(b)
	if err != nil {
		t.Fatal(err)
	}
	blk := lv[0]
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			got := blk[(y-b.Y0)*b.Width()+(x-b.X0)]
			if got != field[y*10+x] {
				t.Fatalf("block value at (%d,%d) = %g want %g", x, y, got, field[y*10+x])
			}
		}
	}
}

func TestSeekAccountingBlockVsBar(t *testing.T) {
	// The asymmetry the paper's Figure 5 is about: a narrow block costs one
	// seek per row; a bar costs one seek total.
	path, _ := writeTestMember(t, 16, 12)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := grid.Box{X0: 2, X1: 6, Y0: 0, Y1: 12}
	if _, err := m.ReadBlockLevels(b); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Seeks != 12 {
		t.Errorf("narrow block of height 12 took %d seeks, want 12", s.Seeks)
	}
	m2, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	full := grid.Box{X0: 0, X1: 16, Y0: 0, Y1: 12}
	if _, err := m2.ReadBlockLevels(full); err != nil {
		t.Fatal(err)
	}
	if s := m2.Stats(); s.Seeks != 1 {
		t.Errorf("full-width block took %d seeks, want 1", s.Seeks)
	}
}

func TestReadBlockBounds(t *testing.T) {
	path, _ := writeTestMember(t, 10, 6)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := []grid.Box{
		{X0: -1, X1: 3, Y0: 0, Y1: 2},
		{X0: 0, X1: 11, Y0: 0, Y1: 2},
		{X0: 0, X1: 3, Y0: 0, Y1: 7},
		{X0: 3, X1: 3, Y0: 0, Y1: 2},
	}
	for _, b := range bad {
		if _, err := m.ReadBlockLevels(b); err == nil {
			t.Errorf("ReadBlockLevels(%v): expected error", b)
		}
	}
}

func TestOpenMemberRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// Bad magic.
	bad := filepath.Join(dir, "bad.senk")
	if err := os.WriteFile(bad, append([]byte("NOPE"), make([]byte, 40)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMember(bad); err == nil {
		t.Error("expected bad-magic error")
	}
	// Truncated payload.
	path, _ := writeTestMember(t, 4, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.senk")
	if err := os.WriteFile(trunc, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMember(trunc); err == nil {
		t.Error("expected size mismatch error")
	}
	// Missing file.
	if _, err := OpenMember(filepath.Join(dir, "missing.senk")); err == nil {
		t.Error("expected open error")
	}
	// Too short for a header.
	short := filepath.Join(dir, "short.senk")
	if err := os.WriteFile(short, []byte("SENK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMember(short); err == nil {
		t.Error("expected short-header error")
	}
}

func TestWriteEnsemble(t *testing.T) {
	dir := t.TempDir()
	m, err := grid.NewMesh(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, 1)
	fields, err := workload.Ensemble(m, truth, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := WriteEnsemble(dir, m, fields)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	for k, p := range paths {
		mf, err := OpenMember(p)
		if err != nil {
			t.Fatal(err)
		}
		if mf.Header.Member != k {
			t.Errorf("member index %d, want %d", mf.Header.Member, k)
		}
		got, err := mf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != fields[k][i] {
				t.Fatalf("member %d value %d mismatch", k, i)
			}
		}
		mf.Close()
	}
}

func TestBarEqualsUnionOfBlockRows(t *testing.T) {
	path, _ := writeTestMember(t, 12, 9)
	ma, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	bar, err := ma.ReadBar(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	lv, err := mb.ReadBlockLevels(grid.Box{X0: 0, X1: 12, Y0: 3, Y1: 6})
	if err != nil {
		t.Fatal(err)
	}
	blk := lv[0]
	for i := range bar {
		if bar[i] != blk[i] {
			t.Fatalf("bar and full-width block disagree at %d", i)
		}
	}
}
