package ensio

import (
	"os"
	"path/filepath"
	"testing"

	"senkf/internal/grid"
)

// field returns a deterministic nx×ny test field keyed by k.
func testField(nx, ny, k int) []float64 {
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = float64(k*1000 + i)
	}
	return f
}

// TestWriteMemberAtomicReplace overwrites an existing member and checks
// the new content landed and no staging temp files linger.
func TestWriteMemberAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := MemberPath(dir, 0)
	h := Header{NX: 6, NY: 4, Member: 0}
	if err := WriteMember(path, h, testField(6, 4, 1)); err != nil {
		t.Fatal(err)
	}
	want := testField(6, 4, 2)
	if err := WriteMember(path, h, want); err != nil {
		t.Fatal(err)
	}
	mf, err := OpenMemberOpts(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	got, err := mf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %g want %g", i, got[i], want[i])
		}
	}
	assertNoTempFiles(t, dir)
}

// TestWriteMemberFailureLeavesNoTemp forces the final rename to fail (the
// target path is a directory) and checks the staged temp file is cleaned
// up — a failed write never litters the ensemble directory.
func TestWriteMemberFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := MemberPath(dir, 0)
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteMember(path, Header{NX: 4, NY: 3, Member: 0}, testField(4, 3, 0)); err == nil {
		t.Fatal("WriteMember over a directory succeeded")
	}
	assertNoTempFiles(t, dir)
}

// TestWriteMemberLevelsAtomicReplace is the multi-level twin.
func TestWriteMemberLevelsAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	m := grid.Mesh{NX: 5, NY: 3}
	path := MemberPath(dir, 2)
	h := Header{NX: m.NX, NY: m.NY, Member: 2}
	if err := WriteMemberLevels(path, h, [][]float64{testField(5, 3, 0), testField(5, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{testField(5, 3, 7), testField(5, 3, 8)}
	if err := WriteMemberLevels(path, h, want); err != nil {
		t.Fatal(err)
	}
	mf, err := OpenMemberOpts(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	got, err := mf.ReadBarLevels(0, m.NY)
	if err != nil {
		t.Fatal(err)
	}
	for l := range want {
		for i := range want[l] {
			if got[l][i] != want[l][i] {
				t.Fatalf("level %d point %d: got %g want %g", l, i, got[l][i], want[l][i])
			}
		}
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(".*.tmp-*", e.Name()); ok {
			t.Fatalf("staging temp file %s left behind", e.Name())
		}
	}
}
