package runlog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadRecord feeds hostile manifest.json bytes to the ledger's reader.
// The fuzzed manifest replaces the real one of an archived run, beside its
// real attachments; Load, ReadFile, Counters, Report, List and DiffRuns
// then run over it. Nothing may panic; an accepted record carries its
// directory's run ID and ManifestSchema and lists only file names
// WriteRecord writes; ReadFile returns only bytes whose SHA-256 the
// manifest lists. The committed seeds under testdata/fuzz/FuzzLoadRecord
// name the attachments of this fixture by hash: if archiveRun's bytes
// change they are merely refused, and the target also seeds the live
// manifest.
func FuzzLoadRecord(f *testing.F) {
	a, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	counters := map[string]float64{"counter/io/reads/value": 100, "gauge/runtime/heap_inuse_bytes/high-water": 1 << 20}
	archiveRun(f, a, "run-a", "senkf-run", "2026-01-01T00:00:00Z", 1.0, 0.9, counters)
	archiveRun(f, a, "run-f", "senkf-run", "2026-01-02T00:00:00Z", 2.0, 0.8, counters)
	manifest := filepath.Join(a.RunDir("run-f"), ManifestFile)
	valid, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := a.Load("run-f"); err == nil {
			if rec.Manifest.RunID != "run-f" || rec.Manifest.Schema != ManifestSchema {
				t.Fatalf("accepted a manifest of run %q, schema %d", rec.Manifest.RunID, rec.Manifest.Schema)
			}
			for name, want := range rec.Manifest.Files {
				if err := checkFileName(name); err != nil || !filepath.IsLocal(name) {
					t.Fatalf("accepted a manifest listing %q, a name WriteRecord refuses or one outside the run directory", name)
				}
				if got, err := rec.ReadFile(name); err == nil && fileHash(got) != want {
					t.Fatalf("ReadFile(%q) returned bytes hashing to %s, manifest lists %s", name, fileHash(got), want)
				}
			}
			_, _ = rec.Counters()
			_, _ = rec.Report()
		}
		_, _ = a.List(Filter{})
		_, _ = a.DiffRuns("run-a", "run-f")
		_, _ = a.DiffRuns("run-f", "run-f")
	})
}
