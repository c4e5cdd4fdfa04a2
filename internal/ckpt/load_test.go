package ckpt

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"senkf/internal/grid"
	"senkf/internal/workload"
)

// smallCheckpoint writes one valid checkpoint of a 6×4 mesh, two levels and
// two members under dir and returns its path. Its bytes are the same on
// every call, so a committed fuzz seed can name them by hash.
func smallCheckpoint(tb testing.TB, dir string) string {
	tb.Helper()
	m := grid.Mesh{NX: 6, NY: 4}
	const levels, members, seed = 2, 2, 28
	truths, err := workload.TruthLevels(m, workload.FieldSpec{Modes: 2, Amplitude: 1, Noise: 0.05}, levels, seed)
	if err != nil {
		tb.Fatal(err)
	}
	flat := func(fields [][]float64) []float64 {
		var out []float64
		for _, f := range fields {
			out = append(out, f...)
		}
		return out
	}
	st := State{Cycle: 2, Truth: flat(truths), Seed: seed, Levels: levels, Config: map[string]string{"nx": "6"}}
	for _, s := range []uint64{seed, seed + 1} {
		ens, err := workload.EnsembleLevels(m, truths, members, 1.2, s)
		if err != nil {
			tb.Fatal(err)
		}
		for _, member := range ens {
			if s == seed {
				st.Ensemble = append(st.Ensemble, flat(member))
			} else {
				st.Free = append(st.Free, flat(member))
			}
		}
	}
	path, err := Write(dir, m, st)
	if err != nil {
		tb.Fatal(err)
	}
	return path
}

// loadWithin is Load, failing the test if it has not returned in 10 s.
func loadWithin(t *testing.T, path string) (*Loaded, error) {
	t.Helper()
	type result struct {
		l   *Loaded
		err error
	}
	done := make(chan result, 1)
	go func() {
		l, err := Load(path)
		done <- result{l, err}
	}()
	select {
	case r := <-done:
		return r.l, r.err
	case <-time.After(10 * time.Second):
		t.Fatalf("Load(%s) is still reading after 10 s", path)
		return nil, nil
	}
}

// reseal rewrites the checkpoint's manifest after edit, with its CRC
// recomputed: the edit reaches the layers behind the CRC.
func reseal(t *testing.T, path string, edit func(*Manifest)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(path, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	edit(&man)
	if man.CRC64, _, err = manifestCRC(man); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, ManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkAccepted fails unless a checkpoint Load accepted is what the manifest
// on disk declares: a CRC that is its own, every file it names one of the
// checkpoint directory's own and hashing to its entry, and a state of the
// declared geometry that Write would have accepted.
func checkAccepted(t *testing.T, path string, l *Loaded) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(path, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("accepted a manifest that does not parse: %v", err)
	}
	if crc, _, err := manifestCRC(man); err != nil || crc != man.CRC64 {
		t.Fatalf("accepted a manifest whose CRC is %s (%v), recorded %s", crc, err, man.CRC64)
	}
	var own []string
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && p != filepath.Join(path, ManifestFile) {
			rel, _ := filepath.Rel(path, p)
			own = append(own, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(man.Files))
	for rel := range man.Files {
		names = append(names, rel)
	}
	if slices.Sort(names); !slices.Equal(names, own) {
		t.Fatalf("accepted a manifest naming %q; the checkpoint holds %q", names, own)
	}
	for rel, h := range man.Files {
		data, err := os.ReadFile(filepath.Join(path, filepath.FromSlash(rel)))
		if err != nil || fileHash(data) != h {
			t.Fatalf("accepted %s recorded as %s: %v", rel, h, err)
		}
	}
	st, m := l.State, grid.Mesh{NX: man.NX, NY: man.NY}
	if st.Cycle != man.Cycle || len(st.Ensemble) != man.Members || st.Levels != man.Levels {
		t.Fatalf("accepted state has cycle %d, %d members, %d levels; the manifest declares %d, %d, %d",
			st.Cycle, len(st.Ensemble), st.Levels, man.Cycle, man.Members, man.Levels)
	}
	if err := validateState(m, st); err != nil {
		t.Fatalf("accepted a state Write refuses: %v", err)
	}
}

// A manifest whose CRC is right may still name files a checkpoint does not
// have. Load must refuse it before it opens any of them: a name outside the
// checkpoint — a FIFO nobody writes to stands in for "/dev/zero" here, which
// Load would read until memory ran out — would otherwise hang Latest and
// `senkf-cycle -resume`, and a file beside the real one would be trusted.
// The state file carries the truth and both ensembles, so "the truth under
// another name" is the state file under another name, and "a member past
// Members" a second state-sized file beside it.
func TestLoadOpensOnlyTheCheckpointsOwnFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(path string, man *Manifest)
		want string
	}{
		{"a FIFO outside the checkpoint", func(path string, man *Manifest) {
			fifo := filepath.Join(filepath.Dir(path), "fifo")
			if err := syscall.Mkfifo(fifo, 0o644); err != nil {
				t.Skipf("mkfifo: %v", err)
			}
			man.Files["../fifo"] = man.Files[stateFile]
		}, "manifest lists"},
		{"a copy outside the checkpoint", func(path string, man *Manifest) {
			data, err := os.ReadFile(filepath.Join(path, stateFile))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(filepath.Dir(path), "outside.senk"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			man.Files = map[string]string{"../outside.senk": fileHash(data)}
		}, "manifest lists"},
		{"the truth under another name", func(_ string, man *Manifest) {
			man.Files["ensemble/../"+stateFile] = man.Files[stateFile]
			delete(man.Files, stateFile)
		}, "manifest lists"},
		{"a member past Members", func(path string, man *Manifest) {
			data, err := os.ReadFile(filepath.Join(path, stateFile))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(path, "member_0002.senk"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			man.Files["member_0002.senk"] = fileHash(data)
		}, "manifest lists"},
		// 2⁴⁰ members cannot be the levels of one state file: refused before
		// the file is read, not by an allocation sized for them.
		{"more members than files", func(_ string, man *Manifest) { man.Members = 1 << 40 }, "invalid geometry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := smallCheckpoint(t, dir)
			reseal(t, path, func(man *Manifest) { tc.edit(path, man) })
			_, err := loadWithin(t, path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: %v, want %q", err, tc.want)
			}
			l, skipped, err := Latest(dir)
			if l != nil || err != nil || len(skipped) != 1 {
				t.Fatalf("Latest: %v, %d skipped, %v; want the one checkpoint skipped", l, len(skipped), err)
			}
		})
	}
}

// A checkpoint Write landed loads with every property checkAccepted asks of
// an accepted one; a negative cycle, which Write refuses, is refused too.
func TestLoadAcceptsWhatWriteLands(t *testing.T) {
	path := smallCheckpoint(t, t.TempDir())
	l, err := loadWithin(t, path)
	if err != nil {
		t.Fatal(err)
	}
	checkAccepted(t, path, l)
	reseal(t, path, func(man *Manifest) { man.Cycle = -1 })
	if _, err := loadWithin(t, path); err == nil {
		t.Fatal("a negative cycle was accepted")
	}
}

// FuzzLoad feeds each input to Load twice over, against one valid
// checkpoint: as its manifest, as given and re-sealed with its CRC
// recomputed, so the decoder and the checks behind the CRC see the fuzzer's
// edits; and as its state file, with the live manifest re-sealed to the
// input's SHA-256, so the ensio header parser, its CRC-64 and the geometry
// checks behind the hash see them. Load must never panic or hang, and what
// it accepts must pass checkAccepted.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	path := smallCheckpoint(f, dir)
	valid, err := os.ReadFile(filepath.Join(path, ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	state, err := os.ReadFile(filepath.Join(path, stateFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(state)
	var man Manifest
	if err := json.Unmarshal(valid, &man); err != nil {
		f.Fatal(err)
	}
	seal := func(man Manifest) []byte {
		crc, _, err := manifestCRC(man)
		if err != nil {
			return nil
		}
		man.CRC64 = crc
		data, err := json.MarshalIndent(&man, "", "  ")
		if err != nil {
			return nil
		}
		return data
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		try := func(manifest, state []byte) {
			for name, data := range map[string][]byte{ManifestFile: manifest, stateFile: state} {
				if err := os.WriteFile(filepath.Join(path, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if l, err := loadWithin(t, path); err == nil {
				checkAccepted(t, path, l)
			}
		}
		try(input, state)
		var edited Manifest
		if json.Unmarshal(input, &edited) == nil {
			if data := seal(edited); data != nil {
				try(data, state)
			}
		}
		live := man
		live.Files = map[string]string{stateFile: fileHash(input)}
		try(seal(live), input)
	})
}
