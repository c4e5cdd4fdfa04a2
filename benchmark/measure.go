package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opSample is what one timed op cost.
type opSample struct {
	wall, cpu      float64 // seconds
	bytes, mallocs uint64
}

// loopStats is the outcome of one closed loop of ops.
type loopStats struct {
	samples           []opSample
	attempted, failed int
	verified          int // ops whose output was compared with its reference
	firstErr          error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeOp runs op i once and measures it. Only the op is inside the
// measurement; the caller checks the output afterwards.
func timeOp(w workload, i int, rec *spanRecorder) (opSample, any, error) {
	var sp *opSpans
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	if rec != nil {
		sp = rec.beginOp(i)
	}
	out, err := w.op(i, sp)
	if rec != nil {
		sp.endOp()
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return opSample{wall: wall, cpu: cpu, bytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs}, out, err
}

// runLoop runs ops first, first+1, ... back to back — one client, the next
// op starts when the previous one has been checked — until the loop has
// lasted for the given time or maxOps ops ran (0: no limit). At least one op
// runs. An op that returns an error or fails its check counts as failed.
func runLoop(w workload, first int, lasting time.Duration, maxOps int, rec *spanRecorder) loopStats {
	var st loopStats
	start := time.Now()
	for i := first; ; i++ {
		s, out, err := timeOp(w, i, rec)
		st.attempted++
		if err == nil {
			var verified bool
			verified, err = w.check(i, out)
			if verified {
				st.verified++
			}
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		} else {
			st.samples = append(st.samples, s)
		}
		if time.Since(start) >= lasting || (maxOps > 0 && st.attempted >= maxOps) {
			return st
		}
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v; the median of an even count
// is the mean of the middle two.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// wallTimes returns the wall time of every sample.
func wallTimes(samples []opSample) []float64 {
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall
	}
	return walls
}

// undisturbed is the quantile the declared times are read at: the time of
// an op that the machine's other tenants left alone. See metrics.go.
const undisturbed = 0.05

// endToEndMetrics turns the samples of the timed section into the
// end-to-end metrics other than setup_s.
func endToEndMetrics(samples []opSample) map[string]float64 {
	n := float64(len(samples))
	cpus := make([]float64, len(samples))
	var bytes, mallocs float64
	for i, s := range samples {
		cpus[i] = s.cpu
		bytes += float64(s.bytes)
		mallocs += float64(s.mallocs)
	}
	return map[string]float64{
		"op_s_p05":        quantile(wallTimes(samples), undisturbed),
		"cpu_s_p05":       quantile(cpus, undisturbed),
		"alloc_mb_per_op": bytes / n / 1e6,
		"allocs_per_op":   mallocs / n,
	}
}

// distribution describes the whole of the samples on one line: what a user
// waits for and pays on this machine at this moment, neighbours included.
// None of it is a declared metric.
func distribution(samples []opSample) string {
	walls := wallTimes(samples)
	var wall, cpu float64
	for _, s := range samples {
		wall += s.wall
		cpu += s.cpu
	}
	n := float64(len(samples))
	return fmt.Sprintf("op_s p50 %.6g p90 %.6g  ops_per_s %.6g  cpu_s_per_op %.6g  over %d samples",
		median(walls), quantile(walls, 0.9), n/wall, cpu/n, len(samples))
}

// medianTime is the median wall time, in seconds, of n calls of f.
func medianTime(n int, f func()) float64 {
	t := make([]float64, n)
	for i := range t {
		t0 := time.Now()
		f()
		t[i] = time.Since(t0).Seconds()
	}
	return median(t)
}

// allocsOf is the mean heap allocation count and bytes of n calls of f.
func allocsOf(n int, f func()) (count, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}
