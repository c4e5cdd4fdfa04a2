package main

import (
	"encoding/json"

	"senkf"
)

// benchRun is one (algorithm, processor count) cell of the suite record.
type benchRun struct {
	Algorithm string  `json:"algorithm"`
	NP        int     `json:"np"`
	Runtime   float64 `json:"runtime"` // virtual seconds
	// FirstStage and OverlapFraction are S-EnKF-only (zero otherwise).
	FirstStage      float64              `json:"first_stage,omitempty"`
	OverlapFraction float64              `json:"overlap_fraction,omitempty"`
	IO              senkf.PhaseBreakdown `json:"io"`
	Compute         senkf.PhaseBreakdown `json:"compute"`
	// Tuned is the auto-tuner's choice (S-EnKF only).
	Tuned *senkf.Tuned `json:"tuned,omitempty"`
	// Drift holds the per-term model-vs-measured comparison (S-EnKF only).
	Drift []senkf.TermDrift `json:"drift,omitempty"`
	// Wire-telemetry summary of the cell's simulated run.
	WireMsgs      int64   `json:"wire_msgs,omitempty"`
	WireEdgeBytes int64   `json:"wire_edge_bytes,omitempty"`
	PeakOSTUtil   float64 `json:"peak_ost_util,omitempty"`
}

// benchRecord is the suite record senkf-bench -record prints and
// bench/quick-suite.golden.json pins at quick scale. Simulated runtimes
// are exact virtual seconds, so the record is the same bits on any machine.
type benchRecord struct {
	Schema int `json:"schema"`
	// Scale names the option set ("quick" or "paper").
	Scale string     `json:"scale"`
	Eps   float64    `json:"eps"`
	Runs  []benchRun `json:"runs"`
}

// collectRecord runs the P-EnKF, S-EnKF and (with MLLevels > 1) S-EnKF-ML
// cells at every configured processor count. Each cell runs with a fresh
// wire collector attached; collectors observe only, so the virtual-clock
// runtimes are the figures' own.
func collectRecord(s *senkf.FigureSuite, scale string) (benchRecord, error) {
	type cell struct {
		sim func(np int) (senkf.SimResult, senkf.Tuned, error)
		p   senkf.ModelParams // prices the tuned choice's drift terms
	}
	penkf := func(np int) (senkf.SimResult, senkf.Tuned, error) {
		res, err := s.PEnKFAt(np)
		return res, senkf.Tuned{}, err
	}
	cells := []cell{{sim: penkf}, {s.SEnKFAt, s.O.Cfg.P}}
	if s.O.MLLevels > 1 {
		mp := s.O.Cfg.P
		mp.Levels = s.O.MLLevels
		cells = append(cells, cell{s.SEnKFMLAt, mp})
	}
	rec := benchRecord{Schema: 1, Scale: scale, Eps: s.O.Eps}
	for _, np := range s.O.ProcCounts {
		for _, c := range cells {
			wc := senkf.NewWireCollector()
			s.O.Cfg.Msgs, s.O.Cfg.Reads = wc, wc
			res, tuned, err := c.sim(np)
			if err != nil {
				return benchRecord{}, err
			}
			w := wc.Summary(1)
			run := benchRun{
				Algorithm: res.Algorithm, NP: res.NP, Runtime: res.Runtime,
				FirstStage: res.FirstStage, OverlapFraction: res.OverlapFraction,
				IO: res.IO, Compute: res.Compute,
				WireMsgs: w.Msgs, WireEdgeBytes: w.Bytes, PeakOSTUtil: w.PeakOSTUtil,
			}
			// Result breakdowns are per-processor totals over L stages;
			// the model terms are per stage.
			if l := float64(tuned.Choice.L); l > 0 {
				run.Tuned = &tuned
				run.Drift = c.p.Drift(tuned.Choice, senkf.MeasuredTerms{
					TRead: res.IO.Read / l,
					TComm: res.IO.Comm / l,
					TComp: res.Compute.Compute / l,
				}).Terms
			}
			rec.Runs = append(rec.Runs, run)
		}
	}
	return rec, nil
}

// encode renders the record as the golden file holds it: indented JSON
// with a final newline.
func (r benchRecord) encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	return append(data, '\n'), err
}
