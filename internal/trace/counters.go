// The counter registry: named monotonic counters, gauges with high-water
// marks, and fixed-bucket histograms, accumulated from hot paths. It is the
// run's one record of every count: -counters prints it as a table, /metrics
// serves it in Prometheus text, and an archived run flattens it once into
// counters.json. Counters are independent of span sinks so `-counters`
// costs nothing but a map update per increment.

package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// DefaultBuckets are the bucket upper bounds of every histogram: decades
// from 1 µs to 1000 s, suiting both simulated service times and
// wall-clock phases.
var DefaultBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000}

type gaugeState struct {
	cur, max float64
	set      bool
}

type histState struct {
	counts []int64 // len(DefaultBuckets)+1: an implicit +Inf bucket follows
	n      int64
	sum    float64
}

// Registry accumulates counters, gauges and histograms. All methods are
// nil-receiver-safe no-ops and safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]*gaugeState
	hists    map[string]*histState
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]*gaugeState{},
		hists:    map[string]*histState{},
	}
}

// Add increments the named monotonic counter by d.
func (r *Registry) Add(name string, d float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += d
	r.mu.Unlock()
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// SetGauge sets the named gauge, tracking its high-water mark.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &gaugeState{}
		r.gauges[name] = g
	}
	g.cur = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
	r.mu.Unlock()
}

// Observe records v into the named histogram, creating it with
// DefaultBuckets on first use.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histState{counts: make([]int64, len(DefaultBuckets)+1)}
		r.hists[name] = h
	}
	i := sort.SearchFloat64s(DefaultBuckets, v)
	h.counts[i]++
	h.n++
	h.sum += v
	r.mu.Unlock()
}

// CounterValue returns the named counter (0 when absent or nil).
func (r *Registry) CounterValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// GaugeMax returns the high-water mark of the named gauge (0 when absent).
func (r *Registry) GaugeMax(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g.max
	}
	return 0
}

// CounterSnapshot is one counter row of a snapshot.
type CounterSnapshot struct {
	Name  string
	Value float64
}

// GaugeSnapshot is one gauge row of a snapshot.
type GaugeSnapshot struct {
	Name      string
	Value     float64
	HighWater float64
}

// HistogramSnapshot is one histogram of a snapshot.
type HistogramSnapshot struct {
	Name    string
	Buckets []float64 // upper bounds; Counts has one extra +Inf bucket
	Counts  []int64
	Count   int64
	Sum     float64
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a consistent, sorted copy of the registry contents.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot copies the registry under its lock.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: v})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.cur, HighWater: g.max})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name:    name,
			Buckets: append([]float64(nil), DefaultBuckets...),
			Counts:  append([]int64(nil), h.counts...),
			Count:   h.n,
			Sum:     h.sum,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// WriteTable renders the registry as aligned text tables.
func (r *Registry) WriteTable(w io.Writer) error { return r.Snapshot().WriteTable(w) }

// WriteTable renders the snapshot as aligned text tables.
func (s Snapshot) WriteTable(w io.Writer) error {
	if len(s.Counters) > 0 {
		width := len("counter")
		for _, c := range s.Counters {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s | value\n", width, "counter"); err != nil {
			return err
		}
		for _, c := range s.Counters {
			if _, err := fmt.Fprintf(w, "%-*s | %s\n", width, c.Name, fmtValue(c.Value)); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		width := len("gauge")
		for _, g := range s.Gauges {
			if len(g.Name) > width {
				width = len(g.Name)
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s | value | high-water\n", width, "gauge"); err != nil {
			return err
		}
		for _, g := range s.Gauges {
			if _, err := fmt.Fprintf(w, "%-*s | %s | %s\n", width, g.Name, fmtValue(g.Value), fmtValue(g.HighWater)); err != nil {
				return err
			}
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "histogram %s: n=%d mean=%s\n", h.Name, h.Count, fmtValue(h.Mean())); err != nil {
			return err
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			var bound string
			if i < len(h.Buckets) {
				bound = fmt.Sprintf("<= %s", fmtValue(h.Buckets[i]))
			} else {
				bound = "> last bucket"
			}
			if _, err := fmt.Fprintf(w, "  %-14s %d\n", bound, c); err != nil {
				return err
			}
		}
	}
	return nil
}
