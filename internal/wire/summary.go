// Summary rendering: the collector's accumulated state reduced to the
// wire.json shape the run ledger archives and senkf-report wire renders —
// top edges by bytes, per-destination skew, per-OST utilization timelines.

package wire

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"senkf/internal/plan"
)

// TimelineBins is the resolution of the per-OST utilization timeline.
const TimelineBins = 24

// EdgeLine is one edge of the summary, heaviest first.
type EdgeLine struct {
	plan.EdgeKey
	plan.EdgeStats
	// MeanMsgBytes is Bytes/Msgs, the per-message payload size.
	MeanMsgBytes float64 `json:"mean_msg_bytes"`
}

// OSTLine is one storage target's attribution.
type OSTLine struct {
	OST      int     `json:"ost"`
	Reads    int64   `json:"reads"`
	Bytes    float64 `json:"bytes"`
	Wait     float64 `json:"wait_s"`
	Service  float64 `json:"service_s"`
	Degraded int64   `json:"degraded"`
	Outage   int64   `json:"outage"`
	// Util is service time over the OST's active window [first, last].
	Util float64 `json:"util"`
	// Timeline is the per-bin service utilization over the run's global
	// OST window, TimelineBins values in [0, 1]. Empty when truncated.
	Timeline  []float64 `json:"timeline,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
}

// Summary is the archived wire-telemetry picture of one run (wire.json).
type Summary struct {
	Algorithm string `json:"algorithm,omitempty"`
	// Stage-data traffic on plan edges.
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
	Edges int   `json:"edges"`
	// Collective and result-gather traffic outside the plan tag space.
	OtherMsgs  int64 `json:"other_msgs"`
	OtherBytes int64 `json:"other_bytes"`
	// Delivery latency and receiver backlog extremes.
	MeanLatency   float64 `json:"mean_latency_s"`
	MaxLatency    float64 `json:"max_latency_s"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	// Skew is max/mean of per-destination stage-data bytes (1 = perfectly
	// balanced, 0 = no stage-data traffic).
	Skew     float64    `json:"skew"`
	TopEdges []EdgeLine `json:"top_edges,omitempty"`
	// OST attribution, by storage target.
	OSTs        []OSTLine `json:"osts,omitempty"`
	PeakOSTUtil float64   `json:"peak_ost_util"`
}

// Summary reduces the collector's state, keeping the topN heaviest edges
// (topN <= 0 keeps 16).
func (c *Collector) Summary(topN int) *Summary {
	if topN <= 0 {
		topN = 16
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	s := &Summary{
		OtherMsgs:     c.otherMsgs,
		OtherBytes:    c.otherBytes,
		MaxLatency:    c.latMax,
		MaxQueueDepth: c.depthMax,
		Edges:         len(c.edges),
	}
	if c.havePlan {
		s.Algorithm = string(c.spec.Algorithm)
	}
	if c.msgs > 0 {
		s.MeanLatency = c.latSum / float64(c.msgs)
	}

	perDst := map[int]int64{}
	lines := make([]EdgeLine, 0, len(c.edges))
	for _, k := range c.edges.Keys() {
		es := c.edges[k]
		s.Msgs += es.Msgs
		s.Bytes += es.Bytes
		perDst[k.Dst] += es.Bytes
		l := EdgeLine{EdgeKey: k, EdgeStats: es}
		if es.Msgs > 0 {
			l.MeanMsgBytes = float64(es.Bytes) / float64(es.Msgs)
		}
		lines = append(lines, l)
	}
	// Heaviest first, ties in key order. Not sort.SliceStable: the monitor
	// calls Summary, so the benchmark binary links it, and the stable sort's
	// code lands ahead of enkf's and shifts its hot loops by 32 bytes
	// (scripts/text-parity.sh).
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i].EdgeKey, lines[j].EdgeKey
		switch {
		case lines[i].Bytes != lines[j].Bytes:
			return lines[i].Bytes > lines[j].Bytes
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Dst != b.Dst:
			return a.Dst < b.Dst
		case a.Stage != b.Stage:
			return a.Stage < b.Stage
		}
		return a.Level < b.Level
	})
	if len(lines) > topN {
		lines = lines[:topN]
	}
	s.TopEdges = lines

	if len(perDst) > 0 {
		var max, sum int64
		for _, b := range perDst {
			sum += b
			if b > max {
				max = b
			}
		}
		s.Skew = float64(max) * float64(len(perDst)) / float64(sum)
	}

	// Global OST window for aligned timelines.
	var t0, t1 float64
	first := true
	for _, a := range c.osts {
		if first || a.first < t0 {
			t0 = a.first
		}
		if first || a.last > t1 {
			t1 = a.last
		}
		first = false
	}
	ids := make([]int, 0, len(c.osts))
	for id := range c.osts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := c.osts[id]
		l := OSTLine{
			OST: id, Reads: a.reads, Bytes: a.bytes,
			Wait: a.wait, Service: a.service,
			Degraded: a.degraded, Outage: a.outage,
			Truncated: a.truncated,
		}
		if a.last > a.first {
			l.Util = a.service / (a.last - a.first)
			if l.Util > 1 {
				l.Util = 1
			}
		}
		if !a.truncated && t1 > t0 {
			l.Timeline = timeline(a.intervals, t0, t1, TimelineBins)
		}
		if l.Util > s.PeakOSTUtil {
			s.PeakOSTUtil = l.Util
		}
		s.OSTs = append(s.OSTs, l)
	}
	return s
}

// timeline bins service intervals over [t0, t1] into per-bin utilization
// fractions.
func timeline(ivs []interval, t0, t1 float64, bins int) []float64 {
	out := make([]float64, bins)
	width := (t1 - t0) / float64(bins)
	if width <= 0 {
		return out
	}
	for _, iv := range ivs {
		lo, hi := iv.t0, iv.t1
		if hi <= lo {
			continue
		}
		b0 := int((lo - t0) / width)
		b1 := int((hi - t0) / width)
		for b := b0; b <= b1 && b < bins; b++ {
			if b < 0 {
				continue
			}
			binLo := t0 + float64(b)*width
			binHi := binLo + width
			ovLo, ovHi := lo, hi
			if ovLo < binLo {
				ovLo = binLo
			}
			if ovHi > binHi {
				ovHi = binHi
			}
			if ovHi > ovLo {
				out[b] += (ovHi - ovLo) / width
			}
		}
	}
	for b := range out {
		if out[b] > 1 {
			out[b] = 1
		}
	}
	return out
}

// WriteTable renders the summary as aligned text: totals, the top edges
// by bytes, and the per-OST attribution with sparkline timelines.
func (s *Summary) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "wire summary (%s)\n", nonEmpty(s.Algorithm, "unknown algorithm")); err != nil {
		return err
	}
	fmt.Fprintf(w, "  stage-data: %d msgs, %d bytes over %d edges (skew %.3f)\n", s.Msgs, s.Bytes, s.Edges, s.Skew)
	fmt.Fprintf(w, "  other:      %d msgs, %d bytes (collectives + result gather)\n", s.OtherMsgs, s.OtherBytes)
	fmt.Fprintf(w, "  latency:    mean %.3gs, max %.3gs; max queue depth %d\n", s.MeanLatency, s.MaxLatency, s.MaxQueueDepth)
	if len(s.TopEdges) > 0 {
		fmt.Fprintln(w, "  top edges by bytes:")
		tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, "    edge\tmsgs\tbytes\tbytes/msg")
		for _, e := range s.TopEdges {
			fmt.Fprintf(tw, "    %s\t%d\t%d\t%.0f\n", e.EdgeKey, e.Msgs, e.Bytes, e.MeanMsgBytes)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(s.OSTs) > 0 {
		fmt.Fprintf(w, "  OSTs (peak util %.2f):\n", s.PeakOSTUtil)
		tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, "    ost\treads\tbytes\twait\tservice\tutil\tfaults\ttimeline")
		for _, o := range s.OSTs {
			faults := ""
			if o.Outage > 0 {
				faults += fmt.Sprintf("%d outage ", o.Outage)
			}
			if o.Degraded > 0 {
				faults += fmt.Sprintf("%d degraded", o.Degraded)
			}
			fmt.Fprintf(tw, "    %d\t%d\t%.3g\t%.3gs\t%.3gs\t%.2f\t%s\t%s\n",
				o.OST, o.Reads, o.Bytes, o.Wait, o.Service, o.Util, faults, spark(o.Timeline))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// spark renders a utilization timeline as a unicode sparkline.
func spark(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := int(v * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		out[i] = levels[idx]
	}
	return string(out)
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
