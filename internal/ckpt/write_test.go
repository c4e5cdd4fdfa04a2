package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// assertManifestHashesMatchDisk checks that every file the manifest names
// exists and hashes to its entry, and that nothing is staged beside them:
// Write takes the hashes from the images it is about to write, so they must
// still be the hashes of what a reader finds.
func assertManifestHashesMatchDisk(t *testing.T, path string, wantFiles int) {
	t.Helper()
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Manifest.Files) != wantFiles {
		t.Fatalf("%s: manifest names %d files, want %d", path, len(l.Manifest.Files), wantFiles)
	}
	for rel, recorded := range l.Manifest.Files {
		data, err := os.ReadFile(filepath.Join(path, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if want := "sha256:" + hex.EncodeToString(sum[:]); recorded != want {
			t.Fatalf("%s: manifest records %s, the bytes on disk hash to %s", rel, recorded, want)
		}
	}
	for _, sub := range []string{"", ensembleDir, freeDir} {
		entries, err := os.ReadDir(filepath.Join(path, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp-") {
				t.Fatalf("%s: staging file %s left in the checkpoint", path, e.Name())
			}
		}
	}
}

func TestManifestHashesAreTheBytesOnDisk(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	path, err := Write(dir, m, testState(t, m, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	assertManifestHashesMatchDisk(t, path, 1+2*7)

	ml, err := Write(dir, m, testStateML(t, m, 4, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	assertManifestHashesMatchDisk(t, ml, 1+2*5)

	// A second write of the same cycle replaces the first, hashes included.
	st := testState(t, m, 3, 7)
	st.Ensemble[2][5] += 1
	again, err := Write(dir, m, st)
	if err != nil {
		t.Fatal(err)
	}
	if again != path {
		t.Fatalf("rewrite landed at %s, want %s", again, path)
	}
	assertManifestHashesMatchDisk(t, path, 1+2*7)
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.State.Ensemble[2][5] != st.Ensemble[2][5] {
		t.Fatal("same-cycle rewrite did not replace the member")
	}
}

// A member file that cannot be written fails the checkpoint as a whole: no
// ckpt-<cycle> directory appears, the stage is swept, and Latest falls back
// to the previous checkpoint. The failure is provoked by deleting the
// stage's free/ directory while Write is filling the stage — the truth and
// ensemble files before it land normally, so this is a failure part-way
// through the batch.
func TestFailedMemberLeavesNoCheckpoint(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	if _, err := Write(dir, m, testState(t, m, 1, 4)); err != nil {
		t.Fatal(err)
	}

	st := testState(t, m, 2, 60)
	for attempt := 0; ; attempt++ {
		stop, sabotaged := make(chan struct{}), make(chan bool)
		go func() {
			for {
				select {
				case <-stop:
					sabotaged <- false
					return
				default:
				}
				stages, _ := filepath.Glob(filepath.Join(dir, stagePrefix+"*", freeDir))
				if len(stages) == 1 && os.RemoveAll(stages[0]) == nil {
					<-stop
					sabotaged <- true
					return
				}
			}
		}()
		_, err := Write(dir, m, st)
		close(stop)
		if !<-sabotaged {
			// Write finished before its stage was seen; it must have succeeded.
			if err != nil {
				t.Fatal(err)
			}
			if attempt == 5 {
				t.Skip("could not interfere with a checkpoint write in 5 attempts")
			}
			if err := os.RemoveAll(filepath.Join(dir, DirName(2))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err == nil {
			t.Fatal("Write succeeded although its free/ directory was deleted under it")
		}
		break
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != DirName(1) {
			t.Fatalf("failed write left %s behind", e.Name())
		}
	}
	l, skipped, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil || l.State.Cycle != 1 || len(skipped) != 0 {
		t.Fatalf("Latest after a failed write: %+v, skipped %v; want cycle 1", l, skipped)
	}
}
