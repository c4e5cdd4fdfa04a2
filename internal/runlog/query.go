// Cross-run analytics over the archive: list (filterable table of
// archived runs) and diff (config/plan-hash/counter/critical-path deltas
// with per-term Eq. 7–10 drift attribution). senkf-report fronts both.

package runlog

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"senkf/internal/runtimeobs"
)

// Filter selects archived runs for list.
type Filter struct {
	// Binary, Algorithm, Substrate and Outcome match exactly when
	// non-empty.
	Binary    string
	Algorithm string
	Substrate string
	Outcome   string
}

func (f Filter) match(m *Manifest) bool {
	if f.Binary != "" && m.Binary != f.Binary {
		return false
	}
	if f.Algorithm != "" && (m.Spec == nil || m.Spec.Algorithm != f.Algorithm) {
		return false
	}
	if f.Substrate != "" && m.Substrate != f.Substrate {
		return false
	}
	if f.Outcome != "" && m.Outcome != f.Outcome {
		return false
	}
	return true
}

// Summary is one run's list row, derived from its manifest alone.
type Summary struct {
	RunID       string  `json:"run_id"`
	Start       string  `json:"start_utc"`
	Binary      string  `json:"binary"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Substrate   string  `json:"substrate,omitempty"`
	Outcome     string  `json:"outcome"`
	Runtime     float64 `json:"runtime_s,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Verdicts    int     `json:"verdicts"`
	Divergences int     `json:"divergences"`
	Cycles      int     `json:"cycles,omitempty"`
	Parent      string  `json:"parent_run_id,omitempty"`
	ResumeCycle int     `json:"resume_cycle,omitempty"`
	// Runtime headline numbers: the high-water marks of the sampler's
	// gauges in counters.json; zero for a run without -runtime-sample
	// (rendered as blanks).
	PeakHeapBytes float64 `json:"peak_heap_bytes,omitempty"`
	MaxGCPauseS   float64 `json:"max_gc_pause_s,omitempty"`
}

// The counters.json keys of the list's runtime columns: the sampler names
// each gauge "runtime/<arg key>".
const (
	peakHeapKey = "gauge/runtime/" + runtimeobs.ArgHeapInuse + "/high-water"
	gcPauseKey  = "gauge/runtime/" + runtimeobs.ArgGCPause + "/high-water"
)

func summarize(m *Manifest) Summary {
	s := Summary{
		RunID: m.RunID, Start: m.Start, Binary: m.Binary,
		Substrate: m.Substrate, Outcome: m.Outcome,
		Runtime: m.Runtime, DurationS: m.DurationS,
		Verdicts: m.Verdicts, Divergences: m.Divergences, Cycles: m.Cycles,
		Parent: m.ParentRunID, ResumeCycle: m.ResumeCycle,
	}
	if m.Spec != nil {
		s.Algorithm = m.Spec.Algorithm
	}
	return s
}

// List returns the filtered archived runs, ordered by start time.
func (a *Archive) List(f Filter) ([]Summary, error) {
	ids, err := a.IDs()
	if err != nil {
		return nil, err
	}
	var out []Summary
	for _, id := range ids {
		rec, err := a.Load(id)
		if err != nil {
			return nil, err
		}
		if f.match(&rec.Manifest) {
			s := summarize(&rec.Manifest)
			// A record without the gauges (no sampler, or counters.json
			// failed verification) just leaves the columns blank.
			if c, err := rec.Counters(); err == nil {
				s.PeakHeapBytes, s.MaxGCPauseS = c[peakHeapKey], c[gcPauseKey]
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].RunID < out[j].RunID
	})
	return out, nil
}

// WriteListTable renders list rows as an aligned table.
func WriteListTable(w io.Writer, rows []Summary) error {
	if _, err := fmt.Fprintf(w, "%-34s %-20s %-7s %-7s %-9s %-11s %9s %8s %5s %9s %8s %s\n",
		"RUN ID", "START (UTC)", "BINARY", "ALGO", "SUBSTRATE", "OUTCOME", "RUNTIME", "VERDICTS", "DIVS", "PEAK-HEAP", "GC-PAUSE", "LINEAGE"); err != nil {
		return err
	}
	for _, r := range rows {
		runtime := "-"
		if r.Runtime > 0 {
			runtime = fmt.Sprintf("%.3fs", r.Runtime)
		}
		peakHeap := "-"
		if r.PeakHeapBytes > 0 {
			peakHeap = fmtBytes(r.PeakHeapBytes)
		}
		gcPause := "-"
		if r.MaxGCPauseS > 0 {
			gcPause = fmt.Sprintf("%.2gms", 1e3*r.MaxGCPauseS)
		}
		binary := strings.TrimPrefix(r.Binary, "senkf-")
		if _, err := fmt.Fprintf(w, "%-34s %-20s %-7s %-7s %-9s %-11s %9s %8d %5d %9s %8s %s\n",
			r.RunID, r.Start, binary, orDash(r.Algorithm), orDash(r.Substrate),
			r.Outcome, runtime, r.Verdicts, r.Divergences, peakHeap, gcPause, lineageShort(r)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d run(s)\n", len(rows))
	return err
}

// fmtBytes renders a byte count compactly for the list table.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2gGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.3gMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.3gKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// lineageShort renders a resumed run's ancestry compactly for the list
// table: "^<parent-id-suffix>@c<resume cycle>", "-" for a fresh run.
func lineageShort(s Summary) string {
	if s.Parent == "" {
		return "-"
	}
	suffix := s.Parent
	if i := strings.LastIndex(suffix, "-"); i >= 0 && i+1 < len(suffix) {
		suffix = suffix[i+1:]
	}
	return fmt.Sprintf("^%s@c%d", suffix, s.ResumeCycle)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// ConfigDelta is one differing config entry across two runs.
type ConfigDelta struct {
	Key string `json:"key"`
	A   string `json:"a"`
	B   string `json:"b"`
}

// ValueDelta is one differing numeric series across two runs.
type ValueDelta struct {
	Name  string  `json:"name"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"` // B − A
}

// DriftDelta compares one Eq. 7–10 drift term across two runs.
type DriftDelta struct {
	Term      string  `json:"term"`
	MeasuredA float64 `json:"measured_a"`
	MeasuredB float64 `json:"measured_b"`
	RelErrA   float64 `json:"rel_err_a"`
	RelErrB   float64 `json:"rel_err_b"`
}

// Diff is the structured comparison of two archived runs.
type Diff struct {
	RunA      string `json:"run_a"`
	RunB      string `json:"run_b"`
	PlanHashA string `json:"plan_hash_a,omitempty"`
	PlanHashB string `json:"plan_hash_b,omitempty"`
	// PlanEqual is true when both runs executed structurally identical
	// compiled plans (equal content hashes).
	PlanEqual bool `json:"plan_equal"`
	// Lineage notes a parent/child relation between the two runs:
	// "b-resumes-a" or "a-resumes-b", with ResumeCycle holding the cycle
	// the child re-entered. Empty when neither resumed from the other.
	Lineage     string        `json:"lineage,omitempty"`
	ResumeCycle int           `json:"resume_cycle,omitempty"`
	Config      []ConfigDelta `json:"config,omitempty"`
	RuntimeA    float64       `json:"runtime_a,omitempty"`
	RuntimeB    float64       `json:"runtime_b,omitempty"`
	// CriticalPath holds the per-"class/phase" critical-path attribution
	// deltas (seconds).
	CriticalPath []ValueDelta `json:"critical_path,omitempty"`
	// Efficiency compares the §4.2 pipeline efficiencies.
	Efficiency *ValueDelta `json:"pipeline_efficiency,omitempty"`
	// Drift attributes the runtime delta to the Eq. 7–10 terms.
	Drift []DriftDelta `json:"drift,omitempty"`
	// Counters holds the largest counter deltas, CountersElided the
	// number beyond the cap.
	Counters       []ValueDelta `json:"counters,omitempty"`
	CountersElided int          `json:"counters_elided,omitempty"`
}

// maxCounterDeltas caps the diff's counter section.
const maxCounterDeltas = 12

// DiffRuns compares two archived runs (IDs may be unique prefixes).
func (a *Archive) DiffRuns(idA, idB string) (*Diff, error) {
	fullA, err := a.Resolve(idA)
	if err != nil {
		return nil, err
	}
	fullB, err := a.Resolve(idB)
	if err != nil {
		return nil, err
	}
	ra, err := a.Load(fullA)
	if err != nil {
		return nil, err
	}
	rb, err := a.Load(fullB)
	if err != nil {
		return nil, err
	}
	ma, mb := &ra.Manifest, &rb.Manifest
	d := &Diff{
		RunA: fullA, RunB: fullB,
		PlanHashA: ma.PlanHash, PlanHashB: mb.PlanHash,
		PlanEqual: ma.PlanHash != "" && ma.PlanHash == mb.PlanHash,
		RuntimeA:  ma.Runtime, RuntimeB: mb.Runtime,
	}
	switch {
	case mb.ParentRunID != "" && mb.ParentRunID == ma.RunID:
		d.Lineage, d.ResumeCycle = "b-resumes-a", mb.ResumeCycle
	case ma.ParentRunID != "" && ma.ParentRunID == mb.RunID:
		d.Lineage, d.ResumeCycle = "a-resumes-b", ma.ResumeCycle
	}

	// Config deltas over the union of keys.
	keys := map[string]bool{}
	for k := range ma.Config {
		keys[k] = true
	}
	for k := range mb.Config {
		keys[k] = true
	}
	for k := range keys {
		va, vb := ma.Config[k], mb.Config[k]
		if va != vb {
			d.Config = append(d.Config, ConfigDelta{Key: k, A: va, B: vb})
		}
	}
	sort.Slice(d.Config, func(i, j int) bool { return d.Config[i].Key < d.Config[j].Key })

	// Report-level deltas: critical-path attribution, pipeline
	// efficiency, per-term drift.
	repA, err := ra.Report()
	if err != nil {
		return nil, err
	}
	repB, err := rb.Report()
	if err != nil {
		return nil, err
	}
	if repA != nil && repB != nil {
		attr := map[string]bool{}
		for k := range repA.CriticalPath.Attribution {
			attr[k] = true
		}
		for k := range repB.CriticalPath.Attribution {
			attr[k] = true
		}
		for k := range attr {
			va, vb := repA.CriticalPath.Attribution[k], repB.CriticalPath.Attribution[k]
			d.CriticalPath = append(d.CriticalPath, ValueDelta{Name: k, A: va, B: vb, Delta: vb - va})
		}
		sort.Slice(d.CriticalPath, func(i, j int) bool { return d.CriticalPath[i].Name < d.CriticalPath[j].Name })
		d.Efficiency = &ValueDelta{
			Name: "pipeline_efficiency",
			A:    repA.PipelineEfficiency, B: repB.PipelineEfficiency,
			Delta: repB.PipelineEfficiency - repA.PipelineEfficiency,
		}
		if repA.Model != nil && repB.Model != nil {
			terms := map[string][2]int{}
			for i, t := range repA.Model.Drift.Terms {
				terms[t.Term] = [2]int{i, -1}
			}
			for i, t := range repB.Model.Drift.Terms {
				if v, ok := terms[t.Term]; ok {
					v[1] = i
					terms[t.Term] = v
				}
			}
			var names []string
			for name, v := range terms {
				if v[1] >= 0 {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				v := terms[name]
				ta, tb := repA.Model.Drift.Terms[v[0]], repB.Model.Drift.Terms[v[1]]
				d.Drift = append(d.Drift, DriftDelta{
					Term: name, MeasuredA: ta.Measured, MeasuredB: tb.Measured,
					RelErrA: ta.RelErr, RelErrB: tb.RelErr,
				})
			}
		}
	}

	// Counter deltas, largest first.
	ca, err := ra.Counters()
	if err != nil {
		return nil, err
	}
	cb, err := rb.Counters()
	if err != nil {
		return nil, err
	}
	ckeys := map[string]bool{}
	for k := range ca {
		ckeys[k] = true
	}
	for k := range cb {
		ckeys[k] = true
	}
	var deltas []ValueDelta
	for k := range ckeys {
		va, vb := ca[k], cb[k]
		if va != vb {
			deltas = append(deltas, ValueDelta{Name: k, A: va, B: vb, Delta: vb - va})
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		da, db := math.Abs(deltas[i].Delta), math.Abs(deltas[j].Delta)
		if da != db {
			return da > db
		}
		return deltas[i].Name < deltas[j].Name
	})
	if len(deltas) > maxCounterDeltas {
		d.CountersElided = len(deltas) - maxCounterDeltas
		deltas = deltas[:maxCounterDeltas]
	}
	d.Counters = deltas
	return d, nil
}

// WriteText renders the diff as a human-readable summary.
func (d *Diff) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("diff %s -> %s\n", d.RunA, d.RunB); err != nil {
		return err
	}
	switch d.Lineage {
	case "b-resumes-a":
		if err := p("  lineage: b resumed from a's checkpoint at cycle %d\n", d.ResumeCycle); err != nil {
			return err
		}
	case "a-resumes-b":
		if err := p("  lineage: a resumed from b's checkpoint at cycle %d\n", d.ResumeCycle); err != nil {
			return err
		}
	}
	switch {
	case d.PlanEqual:
		if err := p("  plan: identical (%s)\n", d.PlanHashA); err != nil {
			return err
		}
	case d.PlanHashA != "" || d.PlanHashB != "":
		if err := p("  plan: DIFFERENT\n    a: %s\n    b: %s\n", orDash(d.PlanHashA), orDash(d.PlanHashB)); err != nil {
			return err
		}
	}
	if d.RuntimeA > 0 && d.RuntimeB > 0 {
		rel := (d.RuntimeB - d.RuntimeA) / d.RuntimeA
		if err := p("  runtime: %.4gs -> %.4gs (%+.2f%%)\n", d.RuntimeA, d.RuntimeB, 100*rel); err != nil {
			return err
		}
	}
	if len(d.Config) > 0 {
		if err := p("  config deltas:\n"); err != nil {
			return err
		}
		for _, c := range d.Config {
			if err := p("    %-18s %q -> %q\n", c.Key, c.A, c.B); err != nil {
				return err
			}
		}
	}
	if len(d.CriticalPath) > 0 {
		if err := p("  critical path attribution (s):\n"); err != nil {
			return err
		}
		for _, v := range d.CriticalPath {
			if err := p("    %-18s %10.4g -> %10.4g  (%+.4g)\n", v.Name, v.A, v.B, v.Delta); err != nil {
				return err
			}
		}
	}
	if d.Efficiency != nil {
		if err := p("  pipeline efficiency: %.3f -> %.3f (%+.3f)\n",
			d.Efficiency.A, d.Efficiency.B, d.Efficiency.Delta); err != nil {
			return err
		}
	}
	if len(d.Drift) > 0 {
		if err := p("  model drift (Eq. 7-10 terms, measured s | rel err):\n"); err != nil {
			return err
		}
		for _, t := range d.Drift {
			if err := p("    %-8s %10.4g -> %10.4g | %+7.2f%% -> %+7.2f%%\n",
				t.Term, t.MeasuredA, t.MeasuredB, 100*t.RelErrA, 100*t.RelErrB); err != nil {
				return err
			}
		}
	}
	if len(d.Counters) > 0 {
		if err := p("  largest counter deltas:\n"); err != nil {
			return err
		}
		for _, v := range d.Counters {
			if err := p("    %-40s %12.6g -> %12.6g  (%+.6g)\n", v.Name, v.A, v.B, v.Delta); err != nil {
				return err
			}
		}
		if d.CountersElided > 0 {
			if err := p("    ... and %d more\n", d.CountersElided); err != nil {
				return err
			}
		}
	}
	return nil
}
