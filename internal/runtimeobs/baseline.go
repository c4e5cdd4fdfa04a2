// Baseline process stats — the dependency-free equivalent of Prometheus'
// GoCollector/ProcessCollector pair. CollectBaseline refreshes a fixed
// set of go/* and process/* gauges on the run registry; the session wires
// it both as the /metrics scrape hook (so every scrape carries current
// values even when the periodic sampler is off) and once at Finish (so
// the archived counters.json always has a final reading).

package runtimeobs

import (
	"os"
	"runtime"
	"strconv"
	"strings"

	"senkf/internal/trace"
)

// Registry names of the baseline gauges.
const (
	RegGoGoroutines = "go/goroutines"
	RegGoThreads    = "go/threads"
	RegGoHeapAlloc  = "go/heap_alloc_bytes"
	RegGoHeapInuse  = "go/heap_inuse_bytes"
	RegGoTotalAlloc = "go/alloc_bytes_total"
	RegGoGCCycles   = "go/gc_cycles_total"
	RegGoGCPauseTot = "go/gc_pause_seconds_total"
	RegProcCPU      = "process/cpu_seconds_total"
	RegProcRSS      = "process/resident_memory_bytes"
	RegProcVSize    = "process/virtual_memory_bytes"
)

// CollectBaseline refreshes the baseline runtime gauges on reg. Nil-safe.
// The go/* gauges always update; the process/* gauges update only when
// /proc/self/stat is readable and parses (Linux), so non-procfs platforms
// simply omit them.
func CollectBaseline(reg *trace.Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.SetGauge(RegGoGoroutines, float64(runtime.NumGoroutine()))
	nThreads, _ := runtime.ThreadCreateProfile(nil)
	reg.SetGauge(RegGoThreads, float64(nThreads))
	reg.SetGauge(RegGoHeapAlloc, float64(ms.HeapAlloc))
	reg.SetGauge(RegGoHeapInuse, float64(ms.HeapInuse))
	reg.SetGauge(RegGoTotalAlloc, float64(ms.TotalAlloc))
	reg.SetGauge(RegGoGCCycles, float64(ms.NumGC))
	reg.SetGauge(RegGoGCPauseTot, float64(ms.PauseTotalNs)/1e9)

	if cpu, rss, vsize, ok := procSelfStat(); ok {
		reg.SetGauge(RegProcCPU, cpu)
		reg.SetGauge(RegProcRSS, rss)
		reg.SetGauge(RegProcVSize, vsize)
	}
}

// procSelfStat parses /proc/self/stat for utime+stime (USER_HZ ticks),
// vsize (bytes) and rss (pages). Returns ok=false anywhere it cannot.
func procSelfStat() (cpuSeconds, rssBytes, vsizeBytes float64, ok bool) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, 0, 0, false
	}
	// Field 2 (comm) may contain spaces; everything after its closing
	// paren is space-separated. utime/stime are fields 14/15, vsize 23,
	// rss 24 (1-based), i.e. indices 11/12/20/21 after the paren.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, 0, false
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 22 {
		return 0, 0, 0, false
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	vsize, err3 := strconv.ParseFloat(fields[20], 64)
	rss, err4 := strconv.ParseFloat(fields[21], 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return 0, 0, 0, false
	}
	const userHZ = 100 // Linux fixes USER_HZ at 100 for userspace ABI
	return (utime + stime) / userHZ, rss * float64(os.Getpagesize()), vsize, true
}
