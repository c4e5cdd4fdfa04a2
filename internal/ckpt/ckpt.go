// Package ckpt implements crash-consistent checkpoints of a cycled
// assimilation experiment: between forecast–analysis cycles, the full
// durable state of the run — the truth field, the assimilating ensemble,
// the free-running control, the cycle index, the deterministic seed
// schedule, and a digest of the driving configuration — is written to
// disk so a killed run resumes from its last completed cycle instead of
// losing every one of them. The design follows the operational view of
// EnKF systems (Sakov's EnKF-C treats the on-disk ensemble *between*
// cycles as the system state) and the elastic ensemble-DA framework of
// Friedemann & Raffin, where the member pool grows and shrinks across a
// study without restarting it.
//
// Crash-consistency protocol. A checkpoint is staged into a hidden temp
// directory inside the checkpoint root: every field is written as an
// ensio member file (format v2, CRC-64 payload checksums, staged +
// fsynced + renamed per file, a few files in flight at a time so their
// fsyncs share journal commits), then — only once every file is durable —
// a MANIFEST.json naming every file by the SHA-256 of the image that was
// written and guarded by its own CRC-64 is written last and fsynced, the
// staged directories are fsynced, and the stage is atomically renamed to
// its final ckpt-<cycle> name (parent directory fsynced). A crash at any
// point leaves either a complete, verifiable checkpoint or an ignorable
// stage — never a half checkpoint behind a valid name. Latest scans
// newest-first and falls back past checkpoints that fail any of the
// validation layers (missing manifest, manifest CRC mismatch, missing or
// hash-mismatched files, ensio checksum or geometry errors), so a
// corrupted latest checkpoint costs the cycles since the previous valid
// one, not the run.
//
// The package sits below the cycle driver and beside the plan layer: it
// depends on ensio (the checkpoint *is* an on-disk ensemble) and the
// grid/workload foundations, never on a substrate (mpi/sim/parfs) — CI
// pins the boundary.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"senkf/internal/ensio"
	"senkf/internal/grid"
)

// Schema is the MANIFEST.json schema version.
const Schema = 1

// ManifestFile is the checkpoint manifest's file name. It is written
// last: a checkpoint without a valid manifest does not exist.
const ManifestFile = "MANIFEST.json"

// File layout inside one checkpoint directory.
const (
	truthFile   = "truth.senk"
	ensembleDir = "ensemble"
	freeDir     = "free"
	stagePrefix = ".stage-"
	dirPrefix   = "ckpt-"
)

// crcTable is the CRC-64 polynomial guarding the manifest.
var crcTable = crc64.MakeTable(crc64.ECMA)

// State is the full cycled-run state one checkpoint carries.
type State struct {
	// Cycle is the number of completed cycles — equivalently, the index
	// of the next cycle to run on resume.
	Cycle int
	// Truth is the reference trajectory's current field.
	Truth []float64
	// Ensemble is the assimilating ensemble after cycle Cycle-1's
	// analysis.
	Ensemble [][]float64
	// Free is the free-running (never assimilating) control ensemble.
	Free [][]float64
	// History is the caller's per-cycle statistics so far, opaque to this
	// package (the cycle driver stores its []Stats here); restored
	// verbatim on resume so a resumed run reports the full series.
	History json.RawMessage
	// Seed is the experiment seed: every cycle's observation noise,
	// perturbation and model-error streams derive deterministically from
	// (Seed, cycle index), so resuming at Cycle replays the exact RNG
	// schedule of an uninterrupted run.
	Seed uint64
	// Config is the driving configuration, name → value; its digest must
	// match on resume (the ensemble size is deliberately excluded by the
	// caller — it is the elastic dimension).
	Config map[string]string
	// PlanHash identifies the compiled analysis plan of the writing run,
	// when one exists ("" for the serial analyzer).
	PlanHash string
	// RunID is the run-ledger identity of the writing run; a resumed run
	// records it as its parent, giving senkf-report the lineage chain.
	RunID string
	// Levels is the vertical level count of the checkpointed state; 0 means
	// 1 (single-level). For Levels > 1 the Truth, Ensemble and Free fields
	// hold each level's row-major field concatenated level-major: level l
	// occupies [l·points, (l+1)·points). On disk, members are stored in
	// ensio's level-interleaved layout, so a resumed multilevel run reads
	// them with the same one-seek bar reads the engine uses.
	Levels int
}

// LevelCount returns the state's effective level count (Levels, 0 → 1).
func (s State) LevelCount() int {
	if s.Levels <= 0 {
		return 1
	}
	return s.Levels
}

// Manifest is the CRC-guarded head of one checkpoint.
type Manifest struct {
	Schema       int               `json:"schema"`
	Cycle        int               `json:"cycle"`
	NX           int               `json:"nx"`
	NY           int               `json:"ny"`
	Members      int               `json:"members"`
	Levels       int               `json:"levels,omitempty"`
	Seed         uint64            `json:"seed"`
	RunID        string            `json:"run_id,omitempty"`
	PlanHash     string            `json:"plan_hash,omitempty"`
	Config       map[string]string `json:"config,omitempty"`
	ConfigDigest string            `json:"config_digest,omitempty"`
	History      json.RawMessage   `json:"history,omitempty"`
	// Files maps every attached file to "sha256:<hex>".
	Files map[string]string `json:"files"`
	// CRC64 is the CRC-64 (ECMA) of this manifest's JSON rendering with
	// the crc64 field empty — the integrity guard of the guard itself.
	CRC64 string `json:"crc64,omitempty"`
}

// DigestConfig content-addresses a configuration map: SHA-256 over the
// sorted "key=value" lines. Two runs with equal digests were driven by
// the same (checkpoint-relevant) configuration.
func DigestConfig(cfg map[string]string) string {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, cfg[k])
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// manifestCRC computes the manifest's CRC-64 over its rendering with the
// CRC field cleared.
func manifestCRC(m Manifest) (string, error) {
	m.CRC64 = ""
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("ckpt: marshal manifest: %w", err)
	}
	return fmt.Sprintf("%016x", crc64.Checksum(data, crcTable)), nil
}

// fileHash content-addresses one attached file.
func fileHash(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// DirName returns the checkpoint directory name of cycle c.
func DirName(c int) string { return fmt.Sprintf("%s%06d", dirPrefix, c) }

// parseCycle extracts the cycle index from a checkpoint directory name.
func parseCycle(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, dirPrefix)
	if !ok {
		return 0, false
	}
	c, err := strconv.Atoi(rest)
	if err != nil || c < 0 {
		return 0, false
	}
	return c, true
}

// syncDir fsyncs a directory so its entries (freshly created files or a
// just-landed rename) survive a crash.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// validateState checks a state against the mesh before writing.
func validateState(m grid.Mesh, st State) error {
	if st.Cycle < 0 {
		return fmt.Errorf("ckpt: negative cycle %d", st.Cycle)
	}
	if st.Levels < 0 {
		return fmt.Errorf("ckpt: negative level count %d", st.Levels)
	}
	want := m.Points() * st.LevelCount()
	if len(st.Truth) != want {
		return fmt.Errorf("ckpt: truth has %d points, mesh %dx%d × %d levels has %d", len(st.Truth), m.NX, m.NY, st.LevelCount(), want)
	}
	if len(st.Ensemble) < 2 {
		return fmt.Errorf("ckpt: ensemble has %d members, need at least 2", len(st.Ensemble))
	}
	if len(st.Free) != len(st.Ensemble) {
		return fmt.Errorf("ckpt: free control has %d members, ensemble has %d", len(st.Free), len(st.Ensemble))
	}
	for k, f := range st.Ensemble {
		if len(f) != want {
			return fmt.Errorf("ckpt: member %d has %d points, state wants %d", k, len(f), want)
		}
	}
	for k, f := range st.Free {
		if len(f) != want {
			return fmt.Errorf("ckpt: free member %d has %d points, state wants %d", k, len(f), want)
		}
	}
	return nil
}

// Write lands one checkpoint of st under dir (created on demand) and
// returns the final checkpoint directory. The write is crash-consistent;
// see the package comment for the protocol. An existing checkpoint of the
// same cycle (a re-run of resumed cycles) is replaced.
func Write(dir string, m grid.Mesh, st State) (string, error) {
	if err := validateState(m, st); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	stage, err := os.MkdirTemp(dir, stagePrefix)
	if err != nil {
		return "", fmt.Errorf("ckpt: stage: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after the final rename

	lv := st.LevelCount()
	man := Manifest{
		Schema: Schema,
		Cycle:  st.Cycle,
		NX:     m.NX, NY: m.NY,
		Members:  len(st.Ensemble),
		Seed:     st.Seed,
		RunID:    st.RunID,
		PlanHash: st.PlanHash,
		Config:   st.Config,
		History:  st.History,
		Files:    map[string]string{},
	}
	if lv > 1 {
		man.Levels = lv
	}
	if len(st.Config) > 0 {
		man.ConfigDigest = DigestConfig(st.Config)
	}

	// Stage every field as an ensio member file — each one staged, synced
	// and renamed on its own, a few in flight at a time — and hash each from
	// the image ensio is about to write: the bytes hashed are the bytes
	// written, without reading the file back. Multilevel fields arrive
	// level-major and land level-interleaved (the engine's on-disk layout).
	for _, sub := range []string{ensembleDir, freeDir} {
		if err := os.Mkdir(filepath.Join(stage, sub), 0o755); err != nil {
			return "", fmt.Errorf("ckpt: %w", err)
		}
	}
	type stagedFile struct {
		rel    string
		member int
		field  []float64
		hash   string
	}
	files := make([]stagedFile, 0, 1+2*len(st.Ensemble))
	files = append(files, stagedFile{rel: truthFile, field: st.Truth})
	for k, f := range st.Ensemble {
		files = append(files, stagedFile{rel: ensembleDir + "/" + memberName(k), member: k, field: f})
	}
	for k, f := range st.Free {
		files = append(files, stagedFile{rel: freeDir + "/" + memberName(k), member: k, field: f})
	}
	pts := m.Points()
	err = ensio.WriteBatch(len(files), func(i int) (string, ensio.Header, [][]float64) {
		f := files[i]
		levels := make([][]float64, lv)
		for l := range levels {
			levels[l] = f.field[l*pts : (l+1)*pts]
		}
		return filepath.Join(stage, filepath.FromSlash(f.rel)), ensio.Header{NX: m.NX, NY: m.NY, Member: f.member}, levels
	}, func(i int, image []byte) { files[i].hash = fileHash(image) })
	if err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	// Every file is durable; only now does the manifest name them.
	for _, f := range files {
		man.Files[f.rel] = f.hash
	}

	// Manifest last, CRC-guarded, fsynced.
	crc, err := manifestCRC(man)
	if err != nil {
		return "", err
	}
	man.CRC64 = crc
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("ckpt: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	mf, err := os.Create(filepath.Join(stage, ManifestFile))
	if err != nil {
		return "", fmt.Errorf("ckpt: manifest: %w", err)
	}
	if _, err := mf.Write(data); err != nil {
		mf.Close()
		return "", fmt.Errorf("ckpt: manifest: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return "", fmt.Errorf("ckpt: manifest sync: %w", err)
	}
	if err := mf.Close(); err != nil {
		return "", fmt.Errorf("ckpt: manifest close: %w", err)
	}
	for _, d := range []string{filepath.Join(stage, ensembleDir), filepath.Join(stage, freeDir), stage} {
		if err := syncDir(d); err != nil {
			return "", fmt.Errorf("ckpt: sync %s: %w", d, err)
		}
	}

	// Atomic landing: replace any same-cycle predecessor, rename the
	// stage into place, persist the parent's entry.
	final := filepath.Join(dir, DirName(st.Cycle))
	if _, err := os.Stat(final); err == nil {
		if err := os.RemoveAll(final); err != nil {
			return "", fmt.Errorf("ckpt: replace %s: %w", final, err)
		}
	}
	if err := os.Rename(stage, final); err != nil {
		return "", fmt.Errorf("ckpt: land: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("ckpt: sync %s: %w", dir, err)
	}
	return final, nil
}

func memberName(k int) string { return fmt.Sprintf("member_%04d.senk", k) }

// Loaded is one checkpoint read back and fully verified.
type Loaded struct {
	State    State
	Manifest Manifest
	// Dir is the checkpoint's directory.
	Dir string
}

// Load reads and fully verifies the checkpoint at path: manifest CRC,
// per-file SHA-256, ensio payload checksums, and geometry. Any failure
// returns an error describing the first broken layer.
func Load(path string) (*Loaded, error) {
	raw, err := os.ReadFile(filepath.Join(path, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("ckpt: %s: manifest: %w", path, err)
	}
	if man.Schema != Schema {
		return nil, fmt.Errorf("ckpt: %s: unsupported schema %d", path, man.Schema)
	}
	want := man.CRC64
	if want == "" {
		return nil, fmt.Errorf("ckpt: %s: manifest carries no CRC", path)
	}
	got, err := manifestCRC(man)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("ckpt: %s: manifest CRC %s, recorded %s — corrupted manifest", path, got, want)
	}
	if man.NX <= 0 || man.NY <= 0 || man.Members < 2 || man.Levels < 0 {
		return nil, fmt.Errorf("ckpt: %s: invalid geometry %dx%d with %d members, %d levels", path, man.NX, man.NY, man.Members, man.Levels)
	}
	m := grid.Mesh{NX: man.NX, NY: man.NY}
	lv := man.Levels
	if lv <= 0 {
		lv = 1
	}

	// Every attached file must exist with its recorded content address.
	for _, rel := range sortedNames(man.Files) {
		data, err := os.ReadFile(filepath.Join(path, filepath.FromSlash(rel)))
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", path, err)
		}
		if h := fileHash(data); h != man.Files[rel] {
			return nil, fmt.Errorf("ckpt: %s: %s content hash %s does not match manifest %s", path, rel, h, man.Files[rel])
		}
	}

	read := func(rel string, member int) ([]float64, error) {
		if _, ok := man.Files[rel]; !ok {
			return nil, fmt.Errorf("ckpt: %s: manifest lists no %s", path, rel)
		}
		mf, err := ensio.OpenMemberOpts(filepath.Join(path, filepath.FromSlash(rel)), ensio.OpenOptions{Verify: true})
		if err != nil {
			return nil, err
		}
		defer mf.Close()
		if err := mf.CheckGeometry(m.NX, m.NY, lv, member); err != nil {
			return nil, err
		}
		if lv == 1 {
			return mf.ReadAll()
		}
		// One bar read over the whole mesh fetches every level; concatenate
		// back to the state's level-major layout.
		levels, err := mf.ReadBarLevels(0, m.NY)
		if err != nil {
			return nil, err
		}
		out := make([]float64, 0, m.Points()*lv)
		for _, f := range levels {
			out = append(out, f...)
		}
		return out, nil
	}
	st := State{
		Cycle:    man.Cycle,
		Seed:     man.Seed,
		Config:   man.Config,
		PlanHash: man.PlanHash,
		RunID:    man.RunID,
		History:  man.History,
		Levels:   man.Levels,
	}
	if st.Truth, err = read(truthFile, 0); err != nil {
		return nil, err
	}
	st.Ensemble = make([][]float64, man.Members)
	st.Free = make([][]float64, man.Members)
	for k := 0; k < man.Members; k++ {
		if st.Ensemble[k], err = read(ensembleDir+"/"+memberName(k), k); err != nil {
			return nil, err
		}
		if st.Free[k], err = read(freeDir+"/"+memberName(k), k); err != nil {
			return nil, err
		}
	}
	return &Loaded{State: st, Manifest: man, Dir: path}, nil
}

func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Skipped records one checkpoint Latest could not use.
type Skipped struct {
	Path string
	Err  error
}

// Latest returns the newest fully valid checkpoint under dir, falling
// back past corrupt, truncated or half-landed ones (each recorded in
// skipped with the validation error that disqualified it). A missing or
// empty directory returns (nil, nil, nil) — no checkpoint is not an
// error, it just means "start from cycle 0".
func Latest(dir string) (*Loaded, []Skipped, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	type cand struct {
		name  string
		cycle int
	}
	var cands []cand
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if c, ok := parseCycle(e.Name()); ok {
			cands = append(cands, cand{e.Name(), c})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cycle > cands[j].cycle })
	var skipped []Skipped
	for _, c := range cands {
		path := filepath.Join(dir, c.name)
		l, err := Load(path)
		if err != nil {
			skipped = append(skipped, Skipped{Path: path, Err: err})
			continue
		}
		return l, skipped, nil
	}
	return nil, skipped, nil
}

// Prune removes all but the newest keep checkpoints under dir (stages
// included — a leftover stage is always garbage). keep < 1 keeps
// everything but still sweeps stale stages.
func Prune(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ckpt: %w", err)
	}
	var cycles []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), stagePrefix) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("ckpt: sweep stage: %w", err)
			}
			continue
		}
		if c, ok := parseCycle(e.Name()); ok {
			cycles = append(cycles, c)
		}
	}
	if keep < 1 || len(cycles) <= keep {
		return nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cycles)))
	for _, c := range cycles[keep:] {
		if err := os.RemoveAll(filepath.Join(dir, DirName(c))); err != nil {
			return fmt.Errorf("ckpt: prune %s: %w", DirName(c), err)
		}
	}
	return nil
}

// List returns the cycles of all checkpoint directories under dir,
// newest first, without validating them.
func List(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var cycles []int
	for _, e := range entries {
		if e.IsDir() {
			if c, ok := parseCycle(e.Name()); ok {
				cycles = append(cycles, c)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cycles)))
	return cycles, nil
}
