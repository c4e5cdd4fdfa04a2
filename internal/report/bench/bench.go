// Package bench holds the versioned bench records and the regression
// gate. senkf-bench -record writes BENCH_<n>.json — the deterministic
// virtual-clock outcomes of the P-EnKF/S-EnKF suite (config, wall times,
// phase breakdowns, model drift) — and senkf-bench -check compares a
// fresh run against the latest committed record, failing when any run's
// wall time regresses beyond the tolerance. Simulated runtimes are exact
// virtual seconds, so records are machine-independent and the gate can
// run in CI without noise margins.
//
// The package sits above internal/report (which stays substrate-free for
// the run ledger's sake) because assembling a record means running the
// simulated suite: it imports internal/figures and, through it, the
// sim/parfs substrate.

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"senkf/internal/costmodel"
	"senkf/internal/figures"
	"senkf/internal/metrics"
	"senkf/internal/wire"
)

// Schema is the BENCH_<n>.json schema version.
const Schema = 1

// Run is one (algorithm, processor count) cell of a bench record.
type Run struct {
	Algorithm string  `json:"algorithm"`
	NP        int     `json:"np"`
	Runtime   float64 `json:"runtime"` // virtual seconds
	// FirstStage and OverlapFraction are S-EnKF-only (zero otherwise).
	FirstStage      float64           `json:"first_stage,omitempty"`
	OverlapFraction float64           `json:"overlap_fraction,omitempty"`
	IO              metrics.Breakdown `json:"io"`
	Compute         metrics.Breakdown `json:"compute"`
	// Tuned is the auto-tuner's choice (S-EnKF only).
	Tuned *costmodel.Tuned `json:"tuned,omitempty"`
	// Drift holds the per-term model-vs-measured comparison (S-EnKF only).
	Drift []costmodel.TermDrift `json:"drift,omitempty"`
	// Wire-telemetry summary of the cell's simulated run. All omitempty so
	// records predating wire telemetry compare cleanly (-check matches on
	// Runtime only).
	WireMsgs      int64   `json:"wire_msgs,omitempty"`
	WireEdgeBytes int64   `json:"wire_edge_bytes,omitempty"`
	PeakOSTUtil   float64 `json:"peak_ost_util,omitempty"`
}

// attachWire installs a fresh wire collector on the suite's config for the
// next simulated cell; applyWire reduces it into the cell's summary fields.
// The collectors observe only — virtual-clock runtimes are untouched.
func attachWire(s *figures.Suite) *wire.Collector {
	c := wire.NewCollector()
	s.O.Cfg.Msgs = c
	s.O.Cfg.Reads = c
	return c
}

func applyWire(r *Run, c *wire.Collector) {
	sum := c.Summary(1)
	r.WireMsgs = sum.Msgs
	r.WireEdgeBytes = sum.Bytes
	r.PeakOSTUtil = sum.PeakOSTUtil
}

func (r Run) key() string { return fmt.Sprintf("%s/np%d", r.Algorithm, r.NP) }

// Record is the content of one BENCH_<n>.json.
type Record struct {
	Version int `json:"version"`
	Schema  int `json:"schema"`
	// Scale names the option set ("quick" or "paper"); records of different
	// scales are not comparable.
	Scale string  `json:"scale"`
	Eps   float64 `json:"eps"`
	Runs  []Run   `json:"runs"`
}

// FromSuite runs the P-EnKF and S-EnKF suite at every configured
// processor count and assembles the record (Version is assigned by
// WriteRecord).
func FromSuite(s *figures.Suite, scale string) (Record, error) {
	rec := Record{Schema: Schema, Scale: scale, Eps: s.O.Eps}
	for _, np := range s.O.ProcCounts {
		wc := attachWire(s)
		pres, err := s.PEnKFAt(np)
		if err != nil {
			return Record{}, err
		}
		prun := Run{
			Algorithm: pres.Algorithm, NP: pres.NP, Runtime: pres.Runtime,
			IO: pres.IO, Compute: pres.Compute,
		}
		applyWire(&prun, wc)
		rec.Runs = append(rec.Runs, prun)
		wc = attachWire(s)
		sres, tuned, err := s.SEnKFAt(np)
		if err != nil {
			return Record{}, err
		}
		run := Run{
			Algorithm: sres.Algorithm, NP: sres.NP, Runtime: sres.Runtime,
			FirstStage: sres.FirstStage, OverlapFraction: sres.OverlapFraction,
			IO: sres.IO, Compute: sres.Compute,
		}
		applyWire(&run, wc)
		t := tuned
		run.Tuned = &t
		// Result breakdowns are per-processor totals over L stages; the
		// model terms are per stage.
		l := float64(tuned.Choice.L)
		if l > 0 {
			d := s.O.Cfg.P.Drift(tuned.Choice, costmodel.Measured{
				TRead: sres.IO.Read / l,
				TComm: sres.IO.Comm / l,
				TComp: sres.Compute.Compute / l,
			})
			run.Drift = d.Terms
		}
		rec.Runs = append(rec.Runs, run)
		if s.O.MLLevels > 1 {
			wc = attachWire(s)
			mres, mtuned, err := s.SEnKFMLAt(np)
			if err != nil {
				return Record{}, err
			}
			ml := Run{
				Algorithm: mres.Algorithm, NP: mres.NP, Runtime: mres.Runtime,
				FirstStage: mres.FirstStage, OverlapFraction: mres.OverlapFraction,
				IO: mres.IO, Compute: mres.Compute,
			}
			applyWire(&ml, wc)
			mt := mtuned
			ml.Tuned = &mt
			if l := float64(mtuned.Choice.L); l > 0 {
				mp := s.O.Cfg.P
				mp.Levels = s.O.MLLevels
				d := mp.Drift(mtuned.Choice, costmodel.Measured{
					TRead: mres.IO.Read / l,
					TComm: mres.IO.Comm / l,
					TComp: mres.Compute.Compute / l,
				})
				ml.Drift = d.Terms
			}
			rec.Runs = append(rec.Runs, ml)
		}
	}
	return rec, nil
}

var recordName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// versions lists the record versions present in dir, ascending.
func versions(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var vs []int
	for _, e := range entries {
		if m := recordName.FindStringSubmatch(e.Name()); m != nil {
			var v int
			fmt.Sscanf(m[1], "%d", &v)
			vs = append(vs, v)
		}
	}
	sort.Ints(vs)
	return vs, nil
}

// Path returns dir/BENCH_<version>.json.
func Path(dir string, version int) string {
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", version))
}

// LatestRecord loads the highest-versioned record in dir. ok is false when
// the directory holds no records.
func LatestRecord(dir string) (Record, string, bool, error) {
	vs, err := versions(dir)
	if err != nil || len(vs) == 0 {
		return Record{}, "", false, err
	}
	path := Path(dir, vs[len(vs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, "", false, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, "", false, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rec, path, true, nil
}

// WriteRecord stores rec in dir as the next version (latest+1, or 1 in an
// empty directory) unless rec.Version is already set, and returns the
// written path.
func WriteRecord(dir string, rec Record) (string, error) {
	if rec.Version == 0 {
		vs, err := versions(dir)
		if err != nil {
			return "", err
		}
		rec.Version = 1
		if len(vs) > 0 {
			rec.Version = vs[len(vs)-1] + 1
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := Path(dir, rec.Version)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunDelta compares one run across two records.
type RunDelta struct {
	Algorithm string  `json:"algorithm"`
	NP        int     `json:"np"`
	Prev      float64 `json:"prev"`
	Cur       float64 `json:"cur"`
	// Delta is (cur − prev) / prev.
	Delta     float64 `json:"delta"`
	Regressed bool    `json:"regressed"`
}

// Compare checks cur against prev: every run present in both records is
// matched by (algorithm, np) and flagged when its wall time exceeds the
// previous one by more than tol (relative). Records of different scales
// are an error — their runtimes are not comparable.
func Compare(prev, cur Record, tol float64) ([]RunDelta, error) {
	if prev.Scale != cur.Scale {
		return nil, fmt.Errorf("bench: cannot compare scale %q against %q", cur.Scale, prev.Scale)
	}
	old := map[string]Run{}
	for _, r := range prev.Runs {
		old[r.key()] = r
	}
	var out []RunDelta
	for _, r := range cur.Runs {
		p, ok := old[r.key()]
		if !ok {
			continue
		}
		d := RunDelta{Algorithm: r.Algorithm, NP: r.NP, Prev: p.Runtime, Cur: r.Runtime}
		if p.Runtime > 0 {
			d.Delta = (r.Runtime - p.Runtime) / p.Runtime
		}
		d.Regressed = r.Runtime > p.Runtime*(1+tol)
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: records share no (algorithm, np) runs")
	}
	return out, nil
}

// Regressions filters the deltas down to the failures.
func Regressions(deltas []RunDelta) []RunDelta {
	var out []RunDelta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}
