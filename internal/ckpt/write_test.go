package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// assertManifestHashesMatchDisk checks that the checkpoint holds exactly
// the manifest and the one file it names, and that the file hashes to its
// entry: Write takes the hash from the image it is writing, so it must still
// be the hash of what a reader finds.
func assertManifestHashesMatchDisk(t *testing.T, path string) {
	t.Helper()
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Manifest.Files) != 1 {
		t.Fatalf("%s: manifest names %d files, want 1", path, len(l.Manifest.Files))
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
	if got := entries(t, path); !slices.Equal(got, []string{ManifestFile, stateFile}) {
		t.Fatalf("%s holds %q, want the manifest and the state file", path, got)
	}
}

// entries lists the names in dir, sorted.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.Name()
	}
	return names
}

func TestManifestHashesAreTheBytesOnDisk(t *testing.T) {
	m := testMesh(t)
	dir := t.TempDir()
	path, err := Write(dir, m, testState(t, m, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	assertManifestHashesMatchDisk(t, path)

	ml, err := Write(dir, m, testStateML(t, m, 4, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	assertManifestHashesMatchDisk(t, ml)

	// A second write of the same cycle replaces the first, hash included.
	st := testState(t, m, 3, 7)
	st.Ensemble[2][5] += 1
	again, err := Write(dir, m, st)
	if err != nil {
		t.Fatal(err)
	}
	if again != path {
		t.Fatalf("rewrite landed at %s, want %s", again, path)
	}
	assertManifestHashesMatchDisk(t, path)
	l, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.State.Ensemble[2][5] != st.Ensemble[2][5] {
		t.Fatal("same-cycle rewrite did not replace the member")
	}
}

// A checkpoint that cannot be completed fails as a whole: no ckpt-<cycle>
// directory appears, Write deletes its own stage, and Latest falls back to
// the previous checkpoint. The failure is provoked by creating a directory
// named MANIFEST.json inside the stage while Write is filling it. That
// succeeds only while the stage exists and its manifest has not been
// written, so whenever it succeeds Write must fail creating the manifest
// and leave the stage for its own cleanup.
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
				stages, _ := filepath.Glob(filepath.Join(dir, stagePrefix+"*"))
				if len(stages) == 1 && os.Mkdir(filepath.Join(stages[0], ManifestFile), 0o755) == nil {
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
			t.Fatal("Write succeeded although its manifest could not be created")
		}
		break
	}

	if got := entries(t, dir); !slices.Equal(got, []string{DirName(1)}) {
		t.Fatalf("failed write left %q, want only %s", got, DirName(1))
	}
	l, skipped, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil || l.State.Cycle != 1 || len(skipped) != 0 {
		t.Fatalf("Latest after a failed write: %+v, skipped %v; want cycle 1", l, skipped)
	}
}

// TestManifestIsTheSealedRendering: the manifest file Write lands is the
// manifest rendered with its CRC set — the CRC of the rendering with the field
// empty — and a newline, whatever the history holds: none, an empty one, one
// entry or 600.
func TestManifestIsTheSealedRendering(t *testing.T) {
	m := testMesh(t)
	entries := func(n int) json.RawMessage {
		h := make([]map[string]float64, n)
		for i := range h {
			h[i] = map[string]float64{"cycle": float64(i), "rmse": 1 / float64(i+3)}
		}
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, hist := range []json.RawMessage{nil, json.RawMessage("[]"), json.RawMessage("null"), entries(1), entries(600)} {
		st := testState(t, m, 3, 4)
		st.History = hist
		img, err := Encode(m, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		path, err := img.Write(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(path, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		man := img.man
		man.Files = map[string]string{stateFile: fileHash(img.data)}
		if man.CRC64, _, err = manifestCRC(man); err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(&man, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("history of %d bytes: the manifest differs from its rendering with the CRC set:\n%s\nwant\n%s", len(hist), clip(got), clip(want))
		}
	}
}

// clip shortens a manifest for a failure message.
func clip(b []byte) string {
	if len(b) > 600 {
		return fmt.Sprintf("%s … %s", b[:300], b[len(b)-300:])
	}
	return string(b)
}
