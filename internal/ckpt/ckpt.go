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
// Layout (schema 2). A checkpoint is a directory ckpt-<cycle> holding two
// files: the state file, one ensio member image (format v2, CRC-64 payload
// checksum) whose levels are the truth's, then each ensemble member's, then
// each control member's, Levels per field; and MANIFEST.json, which carries
// the run's identity, the SHA-256 of the state file and a CRC-64 of its own.
// A file system pays per file and per fsync, not per byte, so the state is
// one file: Encode copies it once, into the image.
//
// Crash-consistency protocol. The image is written into a hidden stage
// directory and fsynced while its SHA-256 is taken; only then is the
// manifest written and fsynced, the stage directory fsynced, the stage
// renamed to ckpt-<cycle> and the parent fsynced: four fsyncs. A crash at
// any point leaves either a complete, verifiable checkpoint or an ignorable
// stage — never a half checkpoint behind a valid name. Load reads the state
// file once and checks the manifest CRC, the SHA-256, the ensio CRC-64 and
// the geometry; Latest scans newest-first and falls back past checkpoints
// that fail any of them, so a corrupted latest checkpoint costs the cycles
// since the previous valid one, not the run. Schema-1 checkpoints (one file
// per field) are refused by the schema check.
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
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"senkf/internal/ensio"
	"senkf/internal/grid"
)

// Schema is the MANIFEST.json schema version.
const Schema = 2

// ManifestFile is the checkpoint manifest's file name. It is written
// last: a checkpoint without a valid manifest does not exist.
const ManifestFile = "MANIFEST.json"

// File layout: the state file beside the manifest in ckpt-<cycle>.
const (
	stateFile   = "state.senk"
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
	// occupies [l·points, (l+1)·points). Each level is one level of the
	// state file's image.
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
	// Files maps the state file, the one attached file, to "sha256:<hex>".
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
// CRC field cleared, and returns that rendering too.
func manifestCRC(m Manifest) (string, []byte, error) {
	m.CRC64 = ""
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return "", nil, fmt.Errorf("ckpt: marshal manifest: %w", err)
	}
	return fmt.Sprintf("%016x", crc64.Checksum(data, crcTable)), data, nil
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

// writeSynced creates path holding data and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// imageLevels returns the level count of the state file of a checkpoint of
// members members and levels levels (≥ 1) — the truth and two ensembles,
// levels each — and false if an ensio header cannot hold it.
func imageLevels(levels, members int) (int, bool) {
	fields := 1 + 2*uint64(members)
	if members < 0 || levels < 1 || fields > math.MaxUint32/uint64(levels) {
		return 0, false
	}
	return levels * int(fields), true
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

// fieldViews returns the per-level views of a state's fields in the state
// file's level order: the truth's levels, each member's, each control
// member's.
func fieldViews(st State, points int) [][]float64 {
	lv := st.LevelCount()
	views := make([][]float64, 0, lv*(1+2*len(st.Ensemble)))
	for _, f := range append(append([][]float64{st.Truth}, st.Ensemble...), st.Free...) {
		for l := 0; l < lv; l++ {
			views = append(views, f[l*points:(l+1)*points])
		}
	}
	return views
}

// Image is one checkpoint encoded and ready to land: its manifest, less the
// state file's hash, and the state file's bytes. It holds no reference to
// the fields it was encoded from.
type Image struct {
	man  Manifest
	data []byte
}

// Cycle returns the cycle the image checkpoints.
func (img *Image) Cycle() int { return img.man.Cycle }

// Encode validates st against the mesh and encodes it into a checkpoint
// image: the one copy of the state a checkpoint makes. reuse, when non-nil,
// is an image Encode may overwrite and return, so that a caller encoding
// every cycle keeps one buffer; on error it is left as it was.
func Encode(m grid.Mesh, st State, reuse *Image) (*Image, error) {
	if err := validateState(m, st); err != nil {
		return nil, err
	}
	img := reuse
	if img == nil {
		img = new(Image)
	}
	data, err := ensio.EncodeImage(img.data, ensio.Header{NX: m.NX, NY: m.NY}, fieldViews(st, m.Points()))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	img.data = data
	img.man = Manifest{
		Schema: Schema,
		Cycle:  st.Cycle,
		NX:     m.NX, NY: m.NY,
		Members:  len(st.Ensemble),
		Seed:     st.Seed,
		RunID:    st.RunID,
		PlanHash: st.PlanHash,
		Config:   st.Config,
		History:  st.History,
	}
	if lv := st.LevelCount(); lv > 1 {
		img.man.Levels = lv
	}
	if len(st.Config) > 0 {
		img.man.ConfigDigest = DigestConfig(st.Config)
	}
	return img, nil
}

// Write lands one checkpoint of st under dir (created on demand) and
// returns the final checkpoint directory: Encode, then Image.Write.
func Write(dir string, m grid.Mesh, st State) (string, error) {
	img, err := Encode(m, st, nil)
	if err != nil {
		return "", err
	}
	return img.Write(dir)
}

// Write lands the image as the checkpoint of its cycle under dir (created on
// demand) and returns the checkpoint directory. The write is crash-
// consistent; see the package comment for the protocol. An existing
// checkpoint of the same cycle (a re-run of resumed cycles) is replaced.
func (img *Image) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	stage, err := os.MkdirTemp(dir, stagePrefix)
	if err != nil {
		return "", fmt.Errorf("ckpt: stage: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after the final rename

	// The manifest needs the state file's hash only once the file is
	// durable, so the hash is taken while the file is written and synced.
	// The bytes hashed are the bytes written.
	hash := make(chan string, 1)
	go func() { hash <- fileHash(img.data) }()
	err = writeSynced(filepath.Join(stage, stateFile), img.data)
	man := img.man
	man.Files = map[string]string{stateFile: <-hash}
	if err != nil {
		return "", fmt.Errorf("ckpt: state file: %w", err)
	}

	// Manifest last, CRC-guarded, fsynced; then the stage's entries. It is
	// rendered once: the crc64 field, omitted when empty and the last, is
	// spliced in before the closing brace of the rendering the CRC covers.
	crc, data, err := manifestCRC(man)
	if err != nil {
		return "", err
	}
	data = append(data[:len(data)-len("\n}")], ",\n  \"crc64\": \""+crc+"\"\n}\n"...)
	if err := writeSynced(filepath.Join(stage, ManifestFile), data); err != nil {
		return "", fmt.Errorf("ckpt: manifest: %w", err)
	}
	if err := syncDir(stage); err != nil {
		return "", fmt.Errorf("ckpt: sync %s: %w", stage, err)
	}

	// Atomic landing: replace any same-cycle predecessor, rename the
	// stage into place, persist the parent's entry.
	final := filepath.Join(dir, DirName(man.Cycle))
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

// Loaded is one checkpoint read back and fully verified.
type Loaded struct {
	State    State
	Manifest Manifest
	// Dir is the checkpoint's directory.
	Dir string
}

// Load reads and fully verifies the checkpoint at path: manifest CRC, the
// state file's SHA-256, its ensio payload checksum, and geometry, all from
// one read of the state file. Any failure returns an error describing the
// first broken layer.
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
		return nil, fmt.Errorf("ckpt: %s: unsupported schema %d, this build reads schema %d", path, man.Schema, Schema)
	}
	want := man.CRC64
	if want == "" {
		return nil, fmt.Errorf("ckpt: %s: manifest carries no CRC", path)
	}
	got, _, err := manifestCRC(man)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("ckpt: %s: manifest CRC %s, recorded %s — corrupted manifest", path, got, want)
	}
	lv := max(man.Levels, 1)
	fields, ok := imageLevels(lv, man.Members)
	if man.NX <= 0 || man.NY <= 0 || man.Members < 2 || man.Levels < 0 || !ok {
		return nil, fmt.Errorf("ckpt: %s: invalid geometry %dx%d with %d members, %d levels", path, man.NX, man.NY, man.Members, man.Levels)
	}
	if man.Cycle < 0 {
		return nil, fmt.Errorf("ckpt: %s: negative cycle %d", path, man.Cycle)
	}
	// The manifest names the state file and no other: a name that leads out
	// of the directory ("../../dev/zero") is never opened.
	if len(man.Files) != 1 || man.Files[stateFile] == "" {
		return nil, fmt.Errorf("ckpt: %s: manifest lists %d files, want the one %s", path, len(man.Files), stateFile)
	}

	data, err := os.ReadFile(filepath.Join(path, stateFile))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	if h := fileHash(data); h != man.Files[stateFile] {
		return nil, fmt.Errorf("ckpt: %s: %s content hash %s does not match manifest %s", path, stateFile, h, man.Files[stateFile])
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
	err = ensio.DecodeImage(stateFile, data, func(h ensio.Header) ([][]float64, error) {
		if h.NX != man.NX || h.NY != man.NY || h.LevelCount() != fields || h.Member != 0 || !h.HasChecksum {
			return nil, fmt.Errorf("%s holds member %d, %dx%d × %d levels (checksum %v); the manifest declares %dx%d × %d",
				stateFile, h.Member, h.NX, h.NY, h.LevelCount(), h.HasChecksum, man.NX, man.NY, fields)
		}
		n := man.NX * man.NY * lv
		st.Truth = make([]float64, n)
		st.Ensemble = make([][]float64, man.Members)
		st.Free = make([][]float64, man.Members)
		for k := range st.Ensemble {
			st.Ensemble[k], st.Free[k] = make([]float64, n), make([]float64, n)
		}
		return fieldViews(st, man.NX*man.NY), nil
	})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return &Loaded{State: st, Manifest: man, Dir: path}, nil
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
