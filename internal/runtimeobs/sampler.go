// The runtime-metrics sampler: a background goroutine that reads
// runtime/metrics on a fixed cadence and publishes each reading three
// ways at once — as a CatRuntime "sample" instant (plus counter series)
// on the trace stream, as gauges/histograms in the run's counter
// registry, and as the run-level peaks that end up in the archived
// runtime.json. Because the instants flow through the session's normal
// sink chain (trace.Tee → monitor → buffer), the live monitor's runtime
// watchdogs and the flight recorder see GC/heap state on the same clock
// as the plan events without any side channel.

package runtimeobs

import (
	"runtime/metrics"
	"sync"
	"time"

	"senkf/internal/trace"
)

// SampleEventName is the name of the periodic runtime instant the
// sampler emits on trace.RuntimeTrack with category trace.CatRuntime.
const SampleEventName = "sample"

// Arg keys of the "sample" instant. internal/monitor parses these to
// drive its runtime watchdogs, so they are shared constants rather than
// literals in two packages.
const (
	ArgGoroutines = "goroutines"       // current goroutine count
	ArgHeapLive   = "heap_live_bytes"  // live heap at last GC mark
	ArgHeapInuse  = "heap_inuse_bytes" // heap spans in use right now
	ArgHeapGoal   = "heap_goal_bytes"  // pacer's next-GC goal
	ArgGCCycles   = "gc_cycles"        // completed GC cycles since start
	ArgGCPause    = "gc_pause_max_s"   // longest stop-the-world pause this tick
	ArgSchedLat   = "sched_lat_max_s"  // longest goroutine sched latency this tick
)

// runtime/metrics names the sampler reads. Read defensively: the set is
// intersected with metrics.All() at construction so a Go release that
// renames one degrades that reading to zero instead of panicking.
const (
	metGoroutines = "/sched/goroutines:goroutines"
	metHeapLive   = "/gc/heap/live:bytes"
	metHeapInuse  = "/memory/classes/heap/objects:bytes"
	metHeapGoal   = "/gc/heap/goal:bytes"
	metGCCycles   = "/gc/cycles/total:gc-cycles"
	metHeapAllocs = "/gc/heap/allocs:bytes"
	metGCPauses   = "/gc/pauses:seconds"
	metSchedLat   = "/sched/latencies:seconds"
)

// Registry metric names the sampler maintains (gauges track high-water,
// so peak heap and peak goroutines survive into the counters table).
const (
	RegGoroutines = "runtime/goroutines"
	RegHeapLive   = "runtime/heap_live_bytes"
	RegHeapInuse  = "runtime/heap_inuse_bytes"
	RegHeapGoal   = "runtime/heap_goal_bytes"
	RegGCCycles   = "runtime/gc_cycles"
	RegGCPause    = "runtime/gc_pause_s"
	RegSchedLat   = "runtime/sched_latency_s"
)

// gcPauseBuckets spans 1µs..1s stop-the-world pauses.
var gcPauseBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// SamplerConfig configures a Sampler. Tracer and Registry may each be
// nil; the sampler then keeps only its run-level summary.
type SamplerConfig struct {
	Tracer   *trace.Tracer
	Registry *trace.Registry
	Interval time.Duration // cadence; <= 0 defaults to DefaultInterval
}

// DefaultInterval is the sampling cadence when none is configured.
const DefaultInterval = 250 * time.Millisecond

// Summary is the run-level digest of the sampler's readings — the shape
// archived as runtime.json. HotStages is attached by the session after
// the run when a labeled CPU profile was captured.
type Summary struct {
	Samples            int     `json:"samples"`
	IntervalSeconds    float64 `json:"interval_seconds"`
	PeakGoroutines     int64   `json:"peak_goroutines"`
	PeakHeapLiveBytes  int64   `json:"peak_heap_live_bytes"`
	PeakHeapInuseBytes int64   `json:"peak_heap_inuse_bytes"`
	HeapGoalBytes      int64   `json:"heap_goal_bytes"`
	GCCycles           int64   `json:"gc_cycles"`
	MaxGCPauseSeconds  float64 `json:"max_gc_pause_seconds"`
	MaxSchedLatSeconds float64 `json:"max_sched_lat_seconds"`
	AllocBytes         int64   `json:"alloc_bytes"`

	HotStages        *Attribution `json:"hot_stages,omitempty"`
	AttributionError string       `json:"attribution_error,omitempty"`
}

// Sampler streams runtime/metrics into the trace/registry plumbing.
// Create with NewSampler, then Start; Stop takes one final synchronous
// sample before returning, so the last reading is never dropped even
// when the run ends between ticks.
type Sampler struct {
	cfg   SamplerConfig
	batch []metrics.Sample
	idx   map[string]int // metric name -> index in batch, present only if supported

	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	started   bool
	stopped   bool
	sum       Summary
	prevPause []uint64 // previous /gc/pauses counts
	prevLat   []uint64 // previous /sched/latencies counts
	baseAlloc int64    // /gc/heap/allocs at first sample
	baseGC    int64    // /gc/cycles/total at first sample
	haveBase  bool
}

// NewSampler builds a sampler; it reads nothing until Start.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	supported := map[string]bool{}
	for _, d := range metrics.All() {
		supported[d.Name] = true
	}
	s := &Sampler{
		cfg:  cfg,
		idx:  map[string]int{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, name := range []string{
		metGoroutines, metHeapLive, metHeapInuse, metHeapGoal,
		metGCCycles, metHeapAllocs, metGCPauses, metSchedLat,
	} {
		if supported[name] {
			s.idx[name] = len(s.batch)
			s.batch = append(s.batch, metrics.Sample{Name: name})
		}
	}
	s.sum.IntervalSeconds = cfg.Interval.Seconds()
	if cfg.Registry != nil {
		cfg.Registry.DeclareHistogram(RegGCPause, gcPauseBuckets)
		cfg.Registry.DeclareHistogram(RegSchedLat, gcPauseBuckets)
	}
	return s
}

// Start launches the sampling goroutine. Idempotent.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sampleOnce()
			}
		}
	}()
}

// Stop halts the sampling goroutine, then takes one final synchronous
// sample so the trace carries the end-of-run runtime state. Safe to call
// more than once; only the first call samples.
func (s *Sampler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	started := s.started
	s.mu.Unlock()
	if started {
		close(s.stop)
		<-s.done
	}
	s.sampleOnce()
}

// Summary returns the run-level digest accumulated so far (a copy).
func (s *Sampler) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// sampleOnce reads the metric batch and publishes one sample. Called
// from the ticker goroutine and once more from Stop after it has joined,
// so publications are never concurrent with each other.
func (s *Sampler) sampleOnce() {
	if len(s.batch) == 0 {
		return
	}
	metrics.Read(s.batch)

	s.mu.Lock()
	goroutines := s.uint64At(metGoroutines)
	heapLive := s.uint64At(metHeapLive)
	heapInuse := s.uint64At(metHeapInuse)
	heapGoal := s.uint64At(metHeapGoal)
	gcTotal := s.uint64At(metGCCycles)
	allocs := s.uint64At(metHeapAllocs)
	pauseMax, pauseObs := s.histDelta(metGCPauses, &s.prevPause)
	latMax, _ := s.histDelta(metSchedLat, &s.prevLat)

	if !s.haveBase {
		s.haveBase = true
		s.baseAlloc = allocs
		s.baseGC = gcTotal
	}
	gcCycles := gcTotal - s.baseGC
	allocDelta := allocs - s.baseAlloc

	s.sum.Samples++
	s.sum.PeakGoroutines = max64(s.sum.PeakGoroutines, goroutines)
	s.sum.PeakHeapLiveBytes = max64(s.sum.PeakHeapLiveBytes, heapLive)
	s.sum.PeakHeapInuseBytes = max64(s.sum.PeakHeapInuseBytes, heapInuse)
	s.sum.HeapGoalBytes = heapGoal
	s.sum.GCCycles = gcCycles
	if pauseMax > s.sum.MaxGCPauseSeconds {
		s.sum.MaxGCPauseSeconds = pauseMax
	}
	if latMax > s.sum.MaxSchedLatSeconds {
		s.sum.MaxSchedLatSeconds = latMax
	}
	s.sum.AllocBytes = allocDelta
	s.mu.Unlock()

	if r := s.cfg.Registry; r != nil {
		r.SetGauge(RegGoroutines, float64(goroutines))
		r.SetGauge(RegHeapLive, float64(heapLive))
		r.SetGauge(RegHeapInuse, float64(heapInuse))
		r.SetGauge(RegHeapGoal, float64(heapGoal))
		r.SetGauge(RegGCCycles, float64(gcCycles))
		for _, p := range pauseObs {
			r.Observe(RegGCPause, p)
		}
		if latMax > 0 {
			r.Observe(RegSchedLat, latMax)
		}
	}

	if tr := s.cfg.Tracer; tr != nil && tr.Enabled() {
		ts := tr.Now()
		tr.Instant(trace.RuntimeTrack, trace.CatRuntime, SampleEventName, ts,
			trace.Arg{Key: ArgGoroutines, Val: float64(goroutines)},
			trace.Arg{Key: ArgHeapLive, Val: float64(heapLive)},
			trace.Arg{Key: ArgHeapInuse, Val: float64(heapInuse)},
			trace.Arg{Key: ArgHeapGoal, Val: float64(heapGoal)},
			trace.Arg{Key: ArgGCCycles, Val: float64(gcCycles)},
			trace.Arg{Key: ArgGCPause, Val: pauseMax},
			trace.Arg{Key: ArgSchedLat, Val: latMax})
		tr.Counter(trace.RuntimeTrack, RegGoroutines, ts, float64(goroutines))
		tr.Counter(trace.RuntimeTrack, RegHeapInuse, ts, float64(heapInuse))
		tr.Counter(trace.RuntimeTrack, RegGCCycles, ts, float64(gcCycles))
	}
}

// uint64At reads one scalar metric from the batch; callers hold s.mu.
func (s *Sampler) uint64At(name string) int64 {
	i, ok := s.idx[name]
	if !ok {
		return 0
	}
	switch v := s.batch[i].Value; v.Kind() {
	case metrics.KindUint64:
		return int64(v.Uint64())
	case metrics.KindFloat64:
		return int64(v.Float64())
	}
	return 0
}

// histDelta diffs a float64-histogram metric against its previous counts,
// returning the largest bucket edge that gained samples this tick and up
// to a handful of representative observations (one per grown bucket, at
// the bucket's upper edge) for the registry histogram. Callers hold s.mu.
func (s *Sampler) histDelta(name string, prev *[]uint64) (maxEdge float64, obs []float64) {
	i, ok := s.idx[name]
	if !ok {
		return 0, nil
	}
	v := s.batch[i].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0, nil
	}
	h := v.Float64Histogram()
	if h == nil {
		return 0, nil
	}
	counts, edges := h.Counts, h.Buckets // len(edges) == len(counts)+1
	if len(*prev) != len(counts) {
		*prev = make([]uint64, len(counts))
		copy(*prev, counts)
		return 0, nil
	}
	for b := range counts {
		if counts[b] <= (*prev)[b] {
			continue
		}
		// Represent the bucket by a finite edge: the upper edge normally,
		// the lower one for the +Inf tail bucket.
		edge := edges[b+1]
		if edge > 1e18 || edge != edge {
			edge = edges[b]
		}
		if edge < 0 {
			edge = 0
		}
		if edge > maxEdge {
			maxEdge = edge
		}
		obs = append(obs, edge)
	}
	copy(*prev, counts)
	return maxEdge, obs
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
