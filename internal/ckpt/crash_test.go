package ckpt

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// copyDir copies the regular files of src into dst, created.
func copyDir(t *testing.T, src, dst string, names ...string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Every on-disk state the write protocol can be interrupted in — the stage
// before the state file lands or while it is written, the stage before the
// manifest, the complete stage not yet renamed (which is also what a crash
// leaves after a same-cycle predecessor was removed), and the landed
// checkpoint — reads as the previous checkpoint or the new one, never as an
// error, and Prune leaves only the newest.
func TestCrashConsistencyTable(t *testing.T) {
	m := testMesh(t)
	done := t.TempDir()
	landed, err := Write(done, m, testState(t, m, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		prepare   func(t *testing.T, dir string)
		wantCycle int
	}{
		{"stage without the state file", func(t *testing.T, dir string) {
			copyDir(t, landed, filepath.Join(dir, stagePrefix+"1"))
		}, 1},
		{"stage with a torn state file", func(t *testing.T, dir string) {
			stage := filepath.Join(dir, stagePrefix+"1")
			copyDir(t, landed, stage, stateFile)
			if err := os.Truncate(filepath.Join(stage, stateFile), 1000); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"stage without the manifest", func(t *testing.T, dir string) {
			copyDir(t, landed, filepath.Join(dir, stagePrefix+"1"), stateFile)
		}, 1},
		{"complete stage, not renamed", func(t *testing.T, dir string) {
			copyDir(t, landed, filepath.Join(dir, stagePrefix+"1"), stateFile, ManifestFile)
		}, 1},
		{"landed", func(t *testing.T, dir string) {
			copyDir(t, landed, filepath.Join(dir, DirName(2)), stateFile, ManifestFile)
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Write(dir, m, testState(t, m, 1, 4)); err != nil {
				t.Fatal(err)
			}
			tc.prepare(t, dir)
			l, skipped, err := Latest(dir)
			if err != nil || l == nil || len(skipped) != 0 {
				t.Fatalf("Latest: %v, skipped %v, %v", l, skipped, err)
			}
			if l.State.Cycle != tc.wantCycle {
				t.Fatalf("Latest read cycle %d, want %d", l.State.Cycle, tc.wantCycle)
			}
			if err := Prune(dir, 1); err != nil {
				t.Fatal(err)
			}
			if got := entries(t, dir); !slices.Equal(got, []string{DirName(tc.wantCycle)}) {
				t.Fatalf("after Prune: %q, want only %s", got, DirName(tc.wantCycle))
			}
		})
	}
}

// Flipping any one byte of a landed state file — in the header, the first
// or last payload word, or anywhere else — makes Load fail and Latest fall
// back to the previous checkpoint; and it still does with the manifest
// re-sealed to the damaged file's hash, when the ensio header checks, its
// CRC-64 and the geometry check are what must catch it.
func TestStateFileByteFlipsFallBack(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	for c := 1; c <= 2; c++ {
		if _, err := Write(dir, m, testState(t, m, c, 3)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, DirName(2))
	file := filepath.Join(path, stateFile)
	intact, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(path, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	const header = 32
	offsets := []int{}
	for i := 0; i < header+8; i++ { // every header byte, the first payload word
		offsets = append(offsets, i)
	}
	for i := len(intact) - 8; i < len(intact); i++ { // the last payload word
		offsets = append(offsets, i)
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 24; i++ {
		offsets = append(offsets, header+rng.Intn(len(intact)-header))
	}
	check := func(off int, what string) {
		t.Helper()
		if _, err := Load(path); err == nil {
			t.Fatalf("byte %d flipped (%s): Load accepted the checkpoint", off, what)
		}
		l, skipped, err := Latest(dir)
		if err != nil || l == nil || l.State.Cycle != 1 || len(skipped) != 1 {
			t.Fatalf("byte %d flipped (%s): Latest %v, skipped %d, %v; want cycle 1", off, what, l, len(skipped), err)
		}
	}
	for _, off := range offsets {
		bad := slices.Clone(intact)
		bad[off] ^= 1 << (off % 8)
		if err := os.WriteFile(file, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		check(off, "hash stale")
		reseal(t, path, func(man *Manifest) { man.Files[stateFile] = fileHash(bad) })
		check(off, "hash re-sealed")
		if err := os.WriteFile(filepath.Join(path, ManifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(file, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, _, err := Latest(dir); err != nil || l == nil || l.State.Cycle != 2 {
		t.Fatalf("the restored checkpoint does not load: %v, %v", l, err)
	}
	if lv := binary.LittleEndian.Uint32(intact[20:24]); lv != 1+2*3 {
		t.Fatalf("the state file holds %d levels, want the truth and two 3-member ensembles", lv)
	}
}

// A schema-1 checkpoint — one file per field, as written before the state
// became one file — is refused by the schema check, by name, and Latest
// skips it for an older schema-2 checkpoint.
func TestSchemaOneIsRefused(t *testing.T) {
	old := filepath.Join("testdata", "schema1", DirName(4))
	_, err := Load(old)
	if err == nil || !strings.Contains(err.Error(), "unsupported schema 1") {
		t.Fatalf("Load of a schema-1 checkpoint: %v, want it refused naming schema 1", err)
	}
	m := testMesh(t)
	dir := t.TempDir()
	if _, err := Write(dir, m, testState(t, m, 3, 4)); err != nil {
		t.Fatal(err)
	}
	copyDir(t, old, filepath.Join(dir, DirName(4)), ManifestFile, "truth.senk")
	for _, sub := range []string{"ensemble", "free"} {
		copyDir(t, filepath.Join(old, sub), filepath.Join(dir, DirName(4), sub), "member_0000.senk", "member_0001.senk")
	}
	l, skipped, err := Latest(dir)
	if err != nil || l == nil || l.State.Cycle != 3 {
		t.Fatalf("Latest: %v, %v; want the schema-2 checkpoint of cycle 3", l, err)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Err.Error(), "unsupported schema 1") {
		t.Fatalf("skipped %v, want the schema-1 checkpoint", skipped)
	}
}
