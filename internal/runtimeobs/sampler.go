// The runtime-metrics sampler: a background goroutine that reads
// runtime/metrics on a fixed cadence and publishes each reading once to
// the trace and once to the registry — as one CatRuntime "sample"
// instant, and as one gauge per instant arg named "runtime/<arg key>",
// whose high-water mark is the run's peak. Because the instants flow
// through the session's normal sink chain (trace.Tee → monitor → buffer),
// the live monitor's runtime watchdogs and the flight recorder see GC/heap
// state on the same clock as the plan events without any side channel.

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

// Arg keys of the "sample" instant, and — under "runtime/" — the names of
// the registry gauges. internal/monitor parses these to drive its runtime
// watchdogs, so they are shared constants rather than literals in two
// packages.
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
	metGCPauses   = "/gc/pauses:seconds"
	metSchedLat   = "/sched/latencies:seconds"
)

// SamplerConfig configures a Sampler. Tracer and Registry may each be nil.
type SamplerConfig struct {
	Tracer   *trace.Tracer
	Registry *trace.Registry
	Interval time.Duration // cadence; must be > 0
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

	mu      sync.Mutex
	started bool
	stopped bool

	// Owned by whichever of the ticker goroutine and the final Stop sample
	// is running; the two never overlap.
	prevPause []uint64 // previous /gc/pauses counts
	prevLat   []uint64 // previous /sched/latencies counts
	baseGC    int64    // /gc/cycles/total at first sample
	haveBase  bool
}

// NewSampler builds a sampler; it reads nothing until Start.
func NewSampler(cfg SamplerConfig) *Sampler {
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
		metGCCycles, metGCPauses, metSchedLat,
	} {
		if supported[name] {
			s.idx[name] = len(s.batch)
			s.batch = append(s.batch, metrics.Sample{Name: name})
		}
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

// sampleOnce reads the metric batch and publishes one sample. Called
// from the ticker goroutine and once more from Stop after it has joined,
// so publications are never concurrent with each other.
func (s *Sampler) sampleOnce() {
	if len(s.batch) == 0 {
		return
	}
	metrics.Read(s.batch)

	gcTotal := s.uint64At(metGCCycles)
	if !s.haveBase {
		s.haveBase = true
		s.baseGC = gcTotal
	}
	args := [...]trace.Arg{
		{Key: ArgGoroutines, Val: float64(s.uint64At(metGoroutines))},
		{Key: ArgHeapLive, Val: float64(s.uint64At(metHeapLive))},
		{Key: ArgHeapInuse, Val: float64(s.uint64At(metHeapInuse))},
		{Key: ArgHeapGoal, Val: float64(s.uint64At(metHeapGoal))},
		{Key: ArgGCCycles, Val: float64(gcTotal - s.baseGC)},
		{Key: ArgGCPause, Val: s.histDelta(metGCPauses, &s.prevPause)},
		{Key: ArgSchedLat, Val: s.histDelta(metSchedLat, &s.prevLat)},
	}
	for _, a := range args {
		s.cfg.Registry.SetGauge("runtime/"+a.Key, a.Val)
	}
	if tr := s.cfg.Tracer; tr != nil && tr.Enabled() {
		tr.Instant(trace.RuntimeTrack, trace.CatRuntime, SampleEventName, tr.Now(), args[:]...)
	}
}

// uint64At reads one scalar metric from the batch.
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
// returning the largest bucket edge that gained samples this tick.
func (s *Sampler) histDelta(name string, prev *[]uint64) (maxEdge float64) {
	i, ok := s.idx[name]
	if !ok {
		return 0
	}
	v := s.batch[i].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	if h == nil {
		return 0
	}
	counts, edges := h.Counts, h.Buckets // len(edges) == len(counts)+1
	if len(*prev) != len(counts) {
		*prev = make([]uint64, len(counts))
		copy(*prev, counts)
		return 0
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
		if edge > maxEdge {
			maxEdge = edge
		}
	}
	copy(*prev, counts)
	return maxEdge
}
