// Package wire is the message-level telemetry layer: it turns the
// per-message callbacks of the real transport (internal/mpi), the
// per-read callbacks of the simulated file system (internal/parfs) and
// the simulated substrate's mirrored sends (internal/schedule) into one
// edge-accounting picture — the actual (src, dst, stage, level) edge
// matrix, collective/result "other" traffic, message-latency extremes,
// and per-OST attribution timelines.
//
// The package sits below the monitor in the layering: it builds on plan
// only (never on a substrate package), declaring nothing the substrates
// must import — mpi and parfs each declare their own structurally
// identical observer interfaces, which Collector satisfies. The collector
// is the only place wire traffic is counted: it emits no trace event, and
// a live monitor reads it directly (monitor.Options.Wire).
package wire

import (
	"sync"

	"senkf/internal/plan"
)

// maxIntervalsPerOST bounds the per-OST service-interval log backing the
// utilization timeline; beyond it the timeline is truncated (flagged in
// the summary) while scalar accounting stays exact.
const maxIntervalsPerOST = 16384

type interval struct{ t0, t1 float64 }

// ostAccum is the per-storage-target slice of the OST attribution.
type ostAccum struct {
	reads     int64
	bytes     float64
	wait      float64
	service   float64
	degraded  int64
	outage    int64
	first     float64 // earliest read start
	last      float64 // latest service end
	intervals []interval
	truncated bool
}

// Collector accumulates wire telemetry from either substrate. It
// implements plan.MsgObserver (and, structurally, mpi.MsgObserver and
// parfs.ReadObserver), is safe for concurrent use, and accumulates across
// runs — a cycled experiment folds every cycle into one picture.
type Collector struct {
	mu sync.Mutex

	spec     plan.Spec // geometry of the latest BeginMessages plan
	havePlan bool

	edges      plan.EdgeMatrix
	otherMsgs  int64
	otherBytes int64

	msgs     int64
	latSum   float64
	latMax   float64
	depthMax int

	osts map[int]*ostAccum
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{edges: plan.EdgeMatrix{}, osts: map[int]*ostAccum{}}
}

// BeginMessages implements plan.MsgObserver: it records the compiled
// plan's geometry so message tags can be inverted into (stage, member,
// level) coordinates. Accumulated state is kept — a cycled run calls this
// once per cycle with the same plan.
func (c *Collector) BeginMessages(cp *plan.Compiled) {
	c.mu.Lock()
	c.spec = cp.Spec
	c.havePlan = true
	c.mu.Unlock()
}

// OnMessage implements plan.MsgObserver and, structurally, the transport's
// mpi.MsgObserver: one delivered message lands on its plan edge (or the
// "other" bucket for collective and result-gather tags).
func (c *Collector) OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int) {
	lat := deliveredAt - sentAt
	if lat < 0 {
		lat = 0
	}
	c.mu.Lock()
	c.msgs++
	c.latSum += lat
	if lat > c.latMax {
		c.latMax = lat
	}
	if depth > c.depthMax {
		c.depthMax = depth
	}
	stage, _, level, ok := 0, 0, 0, false
	if c.havePlan {
		stage, _, level, ok = c.spec.InvertTag(tag)
	}
	if ok {
		c.edges.Record(plan.EdgeKey{Src: src, Dst: dst, Stage: stage, Level: level}, bytes)
	} else {
		c.otherMsgs++
		c.otherBytes += bytes
	}
	c.mu.Unlock()
}

// OnRead implements, structurally, parfs.ReadObserver: one completed read
// attributed to its storage target.
func (c *Collector) OnRead(ost int, bytes float64, start, wait, service float64, degraded, outage bool) {
	c.mu.Lock()
	a := c.osts[ost]
	if a == nil {
		a = &ostAccum{first: start}
		c.osts[ost] = a
	}
	a.reads++
	a.bytes += bytes
	a.wait += wait
	a.service += service
	if degraded {
		a.degraded++
	}
	if outage {
		a.outage++
	}
	if start < a.first {
		a.first = start
	}
	end := start + wait + service
	if end > a.last {
		a.last = end
	}
	if len(a.intervals) < maxIntervalsPerOST {
		a.intervals = append(a.intervals, interval{t0: end - service, t1: end})
	} else {
		a.truncated = true
	}
	c.mu.Unlock()
}

// Matrix returns a copy of the accumulated stage-data edge matrix.
func (c *Collector) Matrix() plan.EdgeMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges.Clone()
}

// Other returns the traffic outside the plan tag space: collectives and
// the engine's result gather. Matrix totals plus Other equal the
// transport's mpi.msgs and mpi.bytes counters exactly.
func (c *Collector) Other() (msgs, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.otherMsgs, c.otherBytes
}
