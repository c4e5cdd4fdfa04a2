// Wire conformance: the monitor judges the wire collector (internal/wire,
// Options.Wire) against the expected edge matrix derived from the compiled
// plan. The collector is the only place wire traffic is counted; it
// accumulates across runs while expectations are per run, so BeginRun
// snapshots it and a run's traffic is the collector minus that snapshot.
// plan.EdgeMatrix.Compare sorts the run's edges into unexpected, over,
// missing and short; each is a plan divergence like any structural one,
// worded here. An outaged or saturated storage target or a
// skewed receiver becomes a watchdog verdict naming the culprit.
//
// A monitor without a collector, or whose collector saw no traffic,
// reports no wire state and no missing edges.

package monitor

import (
	"fmt"

	"senkf/internal/plan"
	"senkf/internal/wire"
)

// wireState is the collector's stage-data matrix and other traffic at
// BeginRun; the run is judged against the plan's expected edges (m.edges).
type wireState struct {
	base      plan.EdgeMatrix
	baseOther plan.EdgeStats
	// OSTs whose outage verdict was issued: one per OST per monitor.
	outaged map[int]bool
}

// wireRun is one run's traffic, judged against the plan.
type wireRun struct {
	edges plan.EdgeMatrix // collector minus the BeginRun snapshot
	other plan.EdgeStats
	sum   *wire.Summary // cumulative: OSTs and queue depth span runs

	unexpected, over, missing, short []plan.EdgeKey
}

// beginWireLocked snapshots the collector.
func (m *Monitor) beginWireLocked() {
	wc := m.opts.Wire
	if wc == nil {
		return
	}
	m.wire.base = wc.Matrix()
	m.wire.baseOther.Msgs, m.wire.baseOther.Bytes = wc.Other()
}

// wireRunLocked reads the collector and classifies the run's edges. Nil
// without a collector or before any traffic reached it.
func (m *Monitor) wireRunLocked() *wireRun {
	wc := m.opts.Wire
	if wc == nil {
		return nil
	}
	r := &wireRun{edges: plan.EdgeMatrix{}, sum: wc.Summary(0)}
	for k, es := range wc.Matrix() {
		if b := m.wire.base[k]; es.Msgs > b.Msgs {
			r.edges[k] = plan.EdgeStats{Msgs: es.Msgs - b.Msgs, Bytes: es.Bytes - b.Bytes}
		}
	}
	r.other = plan.EdgeStats{
		Msgs:  r.sum.OtherMsgs - m.wire.baseOther.Msgs,
		Bytes: r.sum.OtherBytes - m.wire.baseOther.Bytes,
	}
	if len(r.edges) == 0 && r.other.Msgs == 0 && len(r.sum.OSTs) == 0 {
		return nil
	}
	r.unexpected, r.over, r.missing, r.short = r.edges.Compare(m.edges)
	return r
}

// judgeWireLocked judges the run's traffic at EndRun: unexpected and
// overflowing edges and outaged OSTs on every outcome; missing and short
// edges, comm skew and OST saturation on a healthy one only.
func (m *Monitor) judgeWireLocked(healthy bool) {
	r := m.wireRunLocked()
	if r == nil {
		return
	}
	for _, k := range r.unexpected {
		m.divergeLocked(fmt.Sprintf("unexpected wire edge %s: %d bytes outside the plan's comm matrix", k, r.edges[k].Bytes))
	}
	for _, k := range r.over {
		got, exp := r.edges[k], m.edges[k]
		m.divergeLocked(fmt.Sprintf("wire edge %s overflow: %d msgs/%d bytes exceed planned %d msgs/%d bytes",
			k, got.Msgs, got.Bytes, exp.Msgs, exp.Bytes))
	}
	if healthy {
		for _, k := range r.missing {
			exp := m.edges[k]
			m.divergeLocked(fmt.Sprintf("wire edge %s missing: planned %d msgs/%d bytes, saw none", k, exp.Msgs, exp.Bytes))
		}
		for _, k := range r.short {
			got, exp := r.edges[k], m.edges[k]
			m.divergeLocked(fmt.Sprintf("wire edge %s short: %d msgs/%d bytes of planned %d msgs/%d bytes",
				k, got.Msgs, got.Bytes, exp.Msgs, exp.Bytes))
		}
	}
	for _, o := range r.sum.OSTs {
		if o.Outage == 0 || m.wire.outaged[o.OST] {
			continue
		}
		m.wire.outaged[o.OST] = true
		proc := fmt.Sprintf("ost%d", o.OST)
		m.tripLocked(Verdict{
			Proc: proc, Phase: "ost", Stage: -1,
			Observed: o.Wait, Tolerance: tolerance, Mode: "wire",
		}, Incident{Kind: "watchdog", Proc: proc, Detail: fmt.Sprintf(
			"saturated OST %d: outage stalled a read %.3gs (queue wait, %d reads affected)", o.OST, o.Wait, o.Outage)}, true)
	}
	if healthy {
		m.skewVerdictLocked(r.edges)
		m.saturationVerdictLocked(r.sum.OSTs)
	}
}

// skewVerdictLocked blames the receiver whose inbound wire volume exceeds
// tolerance × the peer median — the comm-skew analogue of the straggler
// verdict.
func (m *Monitor) skewVerdictLocked(edges plan.EdgeMatrix) {
	perDst := map[int]int64{}
	for k, es := range edges {
		perDst[k.Dst] += es.Bytes
	}
	if len(perDst) < peerMinSamples {
		return
	}
	vols := make([]float64, 0, len(perDst))
	worst, worstDst := int64(0), -1
	for dst, b := range perDst {
		vols = append(vols, float64(b))
		if b > worst || (b == worst && dst < worstDst) {
			worst, worstDst = b, dst
		}
	}
	med := median(vols)
	if med <= 0 || float64(worst) <= med*tolerance {
		return
	}
	name := m.rankName[worstDst]
	if name == "" {
		name = fmt.Sprintf("rank %d", worstDst)
	}
	edge := fmt.Sprintf("* -> %s (%d inbound bytes, peer median %.0f)", name, worst, med)
	m.tripLocked(Verdict{
		Proc: name, Phase: "comm-skew", Stage: -1,
		Observed: float64(worst), Budget: med,
		Tolerance: tolerance, Mode: "wire", Edge: edge,
	}, Incident{
		Kind: "watchdog", Proc: name, Edge: edge,
		Detail: fmt.Sprintf("skewed wire edge: %s receives %d bytes vs peer median %.0f", name, worst, med),
	}, false)
}

// saturationVerdictLocked blames a storage target whose mean queue wait
// per read exceeds tolerance × the peer median (outaged targets already
// carry their verdict).
func (m *Monitor) saturationVerdictLocked(osts []wire.OSTLine) {
	if len(osts) < 2 {
		return
	}
	var read []wire.OSTLine
	var means []float64
	for _, o := range osts {
		if o.Reads > 0 {
			read = append(read, o)
			means = append(means, o.Wait/float64(o.Reads))
		}
	}
	med := median(means)
	for i, o := range read {
		mean := means[i]
		if o.Outage > 0 || med <= 0 || mean <= med*tolerance || mean <= med+peerMinSlack {
			continue
		}
		proc := fmt.Sprintf("ost%d", o.OST)
		m.tripLocked(Verdict{
			Proc: proc, Phase: "ost-wait", Stage: -1,
			Observed: mean, Budget: med,
			Tolerance: tolerance, Mode: "wire",
		}, Incident{Kind: "watchdog", Proc: proc, Detail: fmt.Sprintf(
			"saturated OST %d: mean queue wait %.3gs vs peer median %.3gs", o.OST, mean, med)}, false)
	}
}

// WireStatus is the wire-conformance slice of /status. Msgs and Bytes count
// stage data only, as in wire.Summary; Other* count everything else.
type WireStatus struct {
	Msgs            int64   `json:"msgs"`
	Bytes           int64   `json:"bytes"`
	EdgesObserved   int     `json:"edges_observed"`
	EdgesExpected   int     `json:"edges_expected"`
	OtherMsgs       int64   `json:"other_msgs"`
	OtherBytes      int64   `json:"other_bytes"`
	MaxQueueDepth   int     `json:"max_queue_depth"`
	MissingEdges    int     `json:"missing_edges"`
	ShortEdges      int     `json:"short_edges"`
	UnexpectedEdges int     `json:"unexpected_edges"`
	OSTs            int     `json:"osts"`
	PeakOSTUtil     float64 `json:"peak_ost_util"`
}

// wireStatusLocked reads the collector now, so /status stays live; nil
// when there is no wire state to report.
func (m *Monitor) wireStatusLocked() *WireStatus {
	r := m.wireRunLocked()
	if r == nil {
		return nil
	}
	tot := r.edges.Totals()
	return &WireStatus{
		Msgs:            tot.Msgs,
		Bytes:           tot.Bytes,
		EdgesObserved:   len(r.edges),
		EdgesExpected:   len(m.edges),
		OtherMsgs:       r.other.Msgs,
		OtherBytes:      r.other.Bytes,
		MaxQueueDepth:   r.sum.MaxQueueDepth,
		MissingEdges:    len(r.missing),
		ShortEdges:      len(r.short),
		UnexpectedEdges: len(r.unexpected),
		OSTs:            len(r.sum.OSTs),
		PeakOSTUtil:     r.sum.PeakOSTUtil,
	}
}
