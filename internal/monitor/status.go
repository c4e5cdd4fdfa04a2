// The monitor's live summary: the JSON the run's server answers /status
// with, the run record archives as monitor.json, and the binaries print
// from after the run.

package monitor

import "sort"

// RankProgress is one rank's live pipeline position.
type RankProgress struct {
	Proc     string `json:"proc"`
	Stage    int    `json:"stage"`  // stage l the rank is in (−1 pre-plan)
	Stages   int    `json:"stages"` // of L
	Spans    int    `json:"spans_done"`
	Expected int    `json:"spans_expected"`
}

// Conformance summarizes the live structural diff against ExpectedDAG.
type Conformance struct {
	Tracks          int            `json:"tracks"`
	MatchedSpans    int64          `json:"matched_spans"`
	ExpectedSpans   int64          `json:"expected_spans"`
	MatchedReady    int64          `json:"matched_ready"`
	ExpectedReady   int64          `json:"expected_ready"`
	DivergenceCount int            `json:"divergence_count"`
	Divergences     []string       `json:"divergences"`
	Laggards        []RankProgress `json:"laggards,omitempty"`
}

// Status is the live run summary.
type Status struct {
	RunID       string             `json:"run_id,omitempty"`
	Algorithm   string             `json:"algorithm"`
	WorldSize   int                `json:"world_size"`
	Stages      int                `json:"stages"`
	Events      int64              `json:"events"`
	Spans       int64              `json:"spans"`
	Complete    bool               `json:"complete"`
	Conformance Conformance        `json:"conformance"`
	Tolerance   float64            `json:"tolerance"`
	Budgets     map[string]float64 `json:"budgets_s,omitempty"`
	Verdicts    []Verdict          `json:"watchdog_verdicts"`
	Incidents   []Incident         `json:"incidents"`
	FlightDump  string             `json:"flight_dump,omitempty"`
	Wire        *WireStatus        `json:"wire,omitempty"`
}

// Status snapshots the monitor.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		RunID:       m.opts.RunID,
		Events:      m.events,
		Spans:       m.spans,
		Tolerance:   tolerance,
		Verdicts:    append([]Verdict{}, m.verdicts...),
		Incidents:   append([]Incident{}, m.incidents...),
		FlightDump:  m.dumpPath,
		Conformance: Conformance{Divergences: append([]string{}, m.divergences...)},
	}
	s.Wire = m.wireStatusLocked()
	if m.cp != nil {
		s.Algorithm = string(m.cp.Spec.Algorithm)
		s.WorldSize = m.cp.WorldSize()
		s.Stages = m.cp.Spec.L
	}
	if len(m.budgets) > 0 {
		s.Budgets = make(map[string]float64, len(m.budgets))
		for k, v := range m.budgets {
			s.Budgets[k] = v
		}
	}
	c := &s.Conformance
	c.DivergenceCount = m.divCount
	complete := m.finished
	var laggards []RankProgress
	for _, name := range m.check.Tracks() {
		exp := m.check.Expected(name)
		spans, ready := m.check.Matched(name)
		c.Tracks++
		c.ExpectedSpans += int64(len(exp.Spans))
		c.ExpectedReady += int64(len(exp.Ready))
		c.MatchedSpans += int64(spans)
		c.MatchedReady += int64(ready)
		if next, ok := m.check.Next(name); ok && !m.dead[name] {
			complete = false
			laggards = append(laggards, RankProgress{
				Proc: name, Stage: next.Stage, Stages: s.Stages,
				Spans: spans, Expected: len(exp.Spans),
			})
		}
	}
	// Bound the per-rank list: the furthest-behind ranks are the story.
	sort.Slice(laggards, func(i, j int) bool {
		fi := float64(laggards[i].Spans) / float64(laggards[i].Expected)
		fj := float64(laggards[j].Spans) / float64(laggards[j].Expected)
		if fi != fj {
			return fi < fj
		}
		return laggards[i].Proc < laggards[j].Proc
	})
	if len(laggards) > 8 {
		laggards = laggards[:8]
	}
	c.Laggards = laggards
	s.Complete = complete && m.divCount == 0
	return s
}
