// Package runlog is the persistent run ledger: every invocation of a
// senkf binary mints a stable run ID, and — when an archive directory is
// configured — writes a self-describing run record into it, so runs
// survive their process and can be listed and diffed later
// (senkf-report list/diff). One record bundles everything the
// in-process observability stack produced: the manifest (run identity,
// binary, full config, algorithm spec + compiled-plan hash, fault plan,
// substrate, outcome), the final counter registry (with the runtime
// sampler's gauges, whose high-water marks are the run's peaks), the
// monitor's verdicts/divergences/incidents, the per-cycle RMSE/spread
// series, the Chrome trace, the flight-recorder dump and the whole-run CPU
// profile. The structured run report (critical path, §4.2 overlap
// efficiency, Eq. 7–10 drift) is not stored: the trace determines it, and
// Record.Report derives it on read.
//
// The archive is content-addressed: the manifest records the SHA-256 of
// every attached file, and the manifest is written last, so a record
// either exists completely and verifiably or not at all. The layout is
//
//	<dir>/runs/<run-id>/manifest.json
//	<dir>/runs/<run-id>/<attached files...>
//
// The package is the audit-trail substrate the ROADMAP's senkf-serve
// daemon will attach to each submitted job; like the monitor it is
// substrate-free by construction (plan/trace/costmodel/report only — CI
// enforces the layering).
package runlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"senkf/internal/plan"
	"senkf/internal/report"
	"senkf/internal/trace"
)

// ManifestSchema is the manifest.json schema version.
const ManifestSchema = 1

// Standard attached-file names inside a run directory.
const (
	ManifestFile = "manifest.json"
	CountersFile = "counters.json"
	MonitorFile  = "monitor.json"
	CyclesFile   = "cycles.json"
	TraceFile    = "trace.json"
	FlightFile   = "flight.json"
	// CPUProfileFile is the whole-run labeled CPU profile, attached under
	// -capture-profile.
	CPUProfileFile = "profiles/cpu.pprof"
	// WireFile is the wire-telemetry summary (edge matrix top lines, OST
	// utilization timelines) written under -wire.
	WireFile = "wire.json"
)

// SpecInfo summarizes the compiled algorithm spec in the manifest.
type SpecInfo struct {
	Algorithm string `json:"algorithm"`
	NSdx      int    `json:"nsdx"`
	NSdy      int    `json:"nsdy"`
	N         int    `json:"n"`
	L         int    `json:"l"`
	NCg       int    `json:"ncg,omitempty"`
	Reader    string `json:"reader"`
	WorldSize int    `json:"world_size"`
}

// Manifest is the self-describing head of one archived run record. It is
// written last, after every attached file, and addresses each of them by
// SHA-256 — a record is complete iff its manifest exists and verifies.
type Manifest struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`
	Binary string `json:"binary"`
	// Start is the run's UTC start time in RFC 3339 format; the run ID
	// embeds the same instant at second resolution.
	Start     string  `json:"start_utc"`
	DurationS float64 `json:"duration_s"`
	// Substrate is "real", "simulated", or "" for binaries that execute
	// no plan (senkf-gen).
	Substrate string `json:"substrate,omitempty"`
	// Config is the binary's full effective flag set, name -> value.
	Config map[string]string `json:"config,omitempty"`
	// Spec and PlanHash identify the compiled plan: the hash is SHA-256
	// over the plan's stable Dump rendering, so two runs with equal
	// hashes executed structurally identical schedules.
	Spec     *SpecInfo `json:"spec,omitempty"`
	PlanHash string    `json:"plan_hash,omitempty"`
	// Faults is the marshaled fault-injection plan, when one was active.
	Faults json.RawMessage `json:"faults,omitempty"`
	// ParentRunID and ResumeCycle record run lineage: a run resumed from a
	// checkpoint names the run whose checkpoint seeded it and the first
	// cycle it re-ran (always ≥ 1 — a checkpoint is cut after a completed
	// cycle, so a resume never restarts at cycle 0).
	ParentRunID string `json:"parent_run_id,omitempty"`
	ResumeCycle int    `json:"resume_cycle,omitempty"`
	// Outcome is "ok", "error" (with Error holding the message), or
	// "interrupted" (SIGINT/SIGTERM landed gracefully).
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Headline numbers duplicated from the attached files so the list
	// table reads them from the manifest.
	Runtime     float64 `json:"runtime_s,omitempty"` // traced span end (virtual or wall)
	Verdicts    int     `json:"verdicts,omitempty"`
	Divergences int     `json:"divergences,omitempty"`
	Cycles      int     `json:"cycles,omitempty"`
	// Files maps each attached file name to "sha256:<hex>".
	Files map[string]string `json:"files,omitempty"`
}

// PlanHash returns the content address of a compiled plan: SHA-256 over
// its stable Dump rendering, as "sha256:<hex>".
func PlanHash(c *plan.Compiled) (string, error) {
	h := sha256.New()
	if err := c.Dump(h); err != nil {
		return "", fmt.Errorf("runlog: hashing plan: %w", err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// SpecSummary flattens a compiled plan into the manifest's spec section.
func SpecSummary(c *plan.Compiled) *SpecInfo {
	s := &SpecInfo{
		Algorithm: string(c.Spec.Algorithm),
		NSdx:      c.Spec.Dec.NSdx,
		NSdy:      c.Spec.Dec.NSdy,
		N:         c.Spec.N,
		L:         c.Spec.L,
		WorldSize: c.WorldSize(),
	}
	if c.Spec.Reader != nil {
		s.Reader = c.Spec.Reader.Name()
	}
	if br, ok := c.Spec.Reader.(plan.BarReader); ok {
		s.NCg = br.NCg
	}
	return s
}

// Archive is a run-record store rooted at one directory.
type Archive struct {
	dir string
}

// Open returns the archive rooted at dir, creating the directory
// structure on demand.
func Open(dir string) (*Archive, error) {
	if dir == "" {
		return nil, fmt.Errorf("runlog: empty archive directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Archive{dir: dir}, nil
}

// RunDir returns the directory of run id (which need not exist yet).
func (a *Archive) RunDir(id string) string { return filepath.Join(a.dir, "runs", id) }

// fileHash content-addresses one attached file.
func fileHash(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// manifestTemp is the name the manifest is staged under before it is
// renamed into place. A run directory holding only it is no record.
const manifestTemp = ManifestFile + ".tmp"

// WriteRecord stores one run record: every attached file first, each
// hashed into m.Files and fsynced, then the manifest, staged under a
// temporary name, fsynced and renamed into place, so a crash leaves either
// the whole record or no manifest. Returns the run directory.
func (a *Archive) WriteRecord(m *Manifest, files map[string][]byte) (string, error) {
	if m.RunID == "" {
		return "", fmt.Errorf("runlog: record without a run ID")
	}
	m.Schema = ManifestSchema
	dir := a.RunDir(m.RunID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	if len(files) > 0 && m.Files == nil {
		m.Files = make(map[string]string, len(files))
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	dirs := map[string]bool{dir: true}
	for _, name := range names {
		if err := checkFileName(name); err != nil {
			return "", fmt.Errorf("runlog: %w", err)
		}
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return "", fmt.Errorf("runlog: %w", err)
		}
		if err := writeSynced(path, files[name]); err != nil {
			return "", fmt.Errorf("runlog: %w", err)
		}
		dirs[filepath.Dir(path)] = true
		m.Files[name] = fileHash(files[name])
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	tmp := filepath.Join(dir, manifestTemp)
	if err := writeSynced(tmp, append(data, '\n')); err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	for d := range dirs {
		if err := syncDir(d); err != nil {
			return "", fmt.Errorf("runlog: %w", err)
		}
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("runlog: %w", err)
	}
	return dir, nil
}

// checkFileName refuses an attached-file name that is not a clean path
// inside the run directory, or that names the manifest: WriteRecord writes
// no such file and Load accepts no manifest that lists one.
func checkFileName(name string) error {
	if name == ManifestFile || name == manifestTemp || name == "." || name != filepath.ToSlash(filepath.Clean(name)) || strings.HasPrefix(name, "..") || filepath.IsAbs(name) {
		return fmt.Errorf("bad attached file name %q", name)
	}
	return nil
}

// writeSynced writes data to path and fsyncs it before closing.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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

// syncDir fsyncs a directory so the entries just created or renamed in it
// survive a crash.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Record is one archived run loaded back from disk.
type Record struct {
	Manifest Manifest
	// Dir is the run's directory inside the archive.
	Dir string
}

// ReadFile loads one attached file, verifying its content address
// against the manifest.
func (r *Record) ReadFile(name string) ([]byte, error) {
	want, ok := r.Manifest.Files[name]
	if !ok {
		return nil, fmt.Errorf("runlog: run %s has no attached file %q", r.Manifest.RunID, name)
	}
	data, err := os.ReadFile(filepath.Join(r.Dir, filepath.FromSlash(name)))
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if got := fileHash(data); got != want {
		return nil, fmt.Errorf("runlog: run %s: %s content hash %s does not match manifest %s",
			r.Manifest.RunID, name, got, want)
	}
	return data, nil
}

// Has reports whether the record carries the named attached file.
func (r *Record) Has(name string) bool {
	_, ok := r.Manifest.Files[name]
	return ok
}

// Report derives the run report from the attached trace, or returns nil
// when the run archived no trace or its trace determines no report (no
// phase spans). A report.json that older records also carry is not read.
func (r *Record) Report() (*report.Report, error) {
	if !r.Has(TraceFile) {
		return nil, nil
	}
	data, err := r.ReadFile(TraceFile)
	if err != nil {
		return nil, err
	}
	events, err := trace.ReadChrome(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("runlog: run %s: %s: %w", r.Manifest.RunID, TraceFile, err)
	}
	rep, err := report.Build(events)
	if err != nil {
		return nil, nil // a trace without phase spans determines no report
	}
	return rep, nil
}

// Counters loads the attached flat counter map ("kind/name/field" keys, as
// FlattenSnapshot writes them), or nil when absent.
func (r *Record) Counters() (map[string]float64, error) {
	if !r.Has(CountersFile) {
		return nil, nil
	}
	data, err := r.ReadFile(CountersFile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("runlog: run %s: %s: %w", r.Manifest.RunID, CountersFile, err)
	}
	return out, nil
}

// Load reads the record of run id. It refuses a manifest of another
// schema, one naming another run, and one listing a file name WriteRecord
// would refuse.
func (a *Archive) Load(id string) (*Record, error) {
	dir := a.RunDir(id)
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("runlog: run %s: %w", id, err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runlog: run %s: manifest: %w", id, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("runlog: run %s: manifest schema %d, want %d", id, m.Schema, ManifestSchema)
	}
	if m.RunID != id {
		return nil, fmt.Errorf("runlog: manifest in %s names run %q", dir, m.RunID)
	}
	for name := range m.Files {
		if err := checkFileName(name); err != nil {
			return nil, fmt.Errorf("runlog: run %s: %w", id, err)
		}
	}
	return &Record{Manifest: m, Dir: dir}, nil
}

// IDs lists the archived run IDs (directories under runs/ holding a
// manifest), sorted lexically — which, given the ID scheme's embedded
// timestamp per binary, is also start order per binary. A directory whose
// manifest is still staged under manifestTemp (a write that crashed before
// the rename) is not listed.
func (a *Archive) IDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(a.dir, "runs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runlog: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(a.dir, "runs", e.Name(), ManifestFile)); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Resolve expands a run ID or unique ID prefix to the full archived ID.
func (a *Archive) Resolve(idOrPrefix string) (string, error) {
	ids, err := a.IDs()
	if err != nil {
		return "", err
	}
	var matches []string
	for _, id := range ids {
		if id == idOrPrefix {
			return id, nil
		}
		if strings.HasPrefix(id, idOrPrefix) {
			matches = append(matches, id)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("runlog: no archived run matches %q", idOrPrefix)
	case 1:
		return matches[0], nil
	default:
		return "", fmt.Errorf("runlog: %q is ambiguous (%s)", idOrPrefix, strings.Join(matches, ", "))
	}
}

// FlattenSnapshot converts a registry snapshot into the flat
// "kind/name/field" map of counters.json, the one flat form of the run's
// counts that list and diff read. Histograms keep their count and sum;
// per-bucket counts stay in the Prometheus rendering only.
func FlattenSnapshot(s trace.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, c := range s.Counters {
		out["counter/"+c.Name+"/value"] = c.Value
	}
	for _, g := range s.Gauges {
		out["gauge/"+g.Name+"/value"] = g.Value
		out["gauge/"+g.Name+"/high-water"] = g.HighWater
	}
	for _, h := range s.Histograms {
		out["histogram/"+h.Name+"/count"] = float64(h.Count)
		out["histogram/"+h.Name+"/sum"] = h.Sum
	}
	return out
}
