// Shared observability flag registration: the seven senkf binaries used
// to copy-paste ~27 flag definitions and the sink-wiring boilerplate
// behind them (-trace buffer, monitor tee, counter registry, the -profile
// server). Register once here, then Start() returns a Session
// holding the configured sink set plus the run's identity.

package runlog

import (
	"flag"
	"fmt"
	"time"
)

// Flags is the registered observability flag set of one binary. Pointers
// are nil for flags the binary did not register (RegisterBasic).
type Flags struct {
	binary string
	fs     *flag.FlagSet

	trace          *string
	counters       *bool
	profile        *string
	monitor        *bool
	flight         *string
	archive        *string
	logLevel       *string
	linger         *time.Duration
	runtimeSample  *time.Duration
	captureProfile *bool
	wire           *bool

	keepEvents bool // the binary prints from the event stream (KeepEvents)
}

// Register installs the full observability flag set — -trace, -counters,
// -profile, -monitor, -flight-recorder, -linger,
// -runtime-sample, -capture-profile, -archive and -log-level — on fs for
// the named binary (senkf-run, senkf-cycle, senkf-bench).
func Register(fs *flag.FlagSet, binary string) *Flags {
	f := RegisterBasic(fs, binary)
	f.trace = fs.String("trace", "", "write a Chrome trace-event JSON file of the run (open in Perfetto)")
	f.counters = fs.Bool("counters", false, "print runtime counters/gauges/histograms after the run")
	f.monitor = fs.Bool("monitor", false, "attach the live plan-conformance monitor, with watchdog verdicts and a flight recorder")
	f.flight = fs.String("flight-recorder", "", "with -monitor: write the anomaly flight-recorder dump (Chrome trace JSON) here")
	f.linger = fs.Duration("linger", 0, "keep the -profile server up for this long after the run, so it can be scraped")
	f.runtimeSample = fs.Duration("runtime-sample", 0, "sample runtime/metrics (goroutines, heap, GC pauses) on this cadence: one runtime-track trace instant per tick, and runtime/<arg> registry gauges whose high-water marks are the run's peaks (0 = off)")
	f.captureProfile = fs.Bool("capture-profile", false, "with -archive: capture a whole-run labeled CPU profile and archive it beside the trace (attribute it with senkf-report hotspots)")
	f.wire = fs.Bool("wire", false, "collect wire telemetry: per-edge comm accounting and per-OST read attribution (wire summary after the run, wire.json with -archive; with -monitor, judged against the plan's edge matrix at run end, live in /status)")
	return f
}

// RegisterBasic installs the subset every binary carries: -profile,
// -archive and -log-level.
func RegisterBasic(fs *flag.FlagSet, binary string) *Flags {
	f := &Flags{binary: binary, fs: fs}
	f.profile = fs.String("profile", "", "serve /debug/pprof/, Prometheus /metrics and (with -monitor) JSON /status on this address (e.g. localhost:6060) while running")
	f.archive = fs.String("archive", "", "archive this run's record (manifest, counters, trace, monitor state) into this run-ledger directory")
	f.logLevel = fs.String("log-level", "info", "structured-log level: debug | info | warn | error")
	return f
}

func strOf(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

func boolOf(p *bool) bool { return p != nil && *p }

// KeepEvents makes the session buffer the run's events whether or not
// -trace or -archive ask for them, for a binary whose own output is folded
// from the stream (Session.Events). Call it before Start.
func (f *Flags) KeepEvents() { f.keepEvents = true }

// TraceOut returns the -trace path ("" when unset or unregistered).
func (f *Flags) TraceOut() string { return strOf(f.trace) }

// CountersOn reports -counters.
func (f *Flags) CountersOn() bool { return boolOf(f.counters) }

// MonitorOn reports -monitor.
func (f *Flags) MonitorOn() bool { return boolOf(f.monitor) }

// ArchiveDir returns the -archive directory.
func (f *Flags) ArchiveDir() string { return strOf(f.archive) }

// RuntimeSampleEvery returns the -runtime-sample cadence (0 when off or
// unregistered).
func (f *Flags) RuntimeSampleEvery() time.Duration {
	if f.runtimeSample == nil {
		return 0
	}
	return *f.runtimeSample
}

// CaptureProfileOn reports -capture-profile.
func (f *Flags) CaptureProfileOn() bool { return boolOf(f.captureProfile) }

// WireOn reports -wire.
func (f *Flags) WireOn() bool { return boolOf(f.wire) }

// Linger returns the -linger duration.
func (f *Flags) Linger() time.Duration {
	if f.linger == nil {
		return 0
	}
	return *f.linger
}

// config snapshots the binary's full effective flag set (every registered
// flag at its post-parse value) for the archive manifest.
func (f *Flags) config() map[string]string {
	if f.fs == nil {
		return nil
	}
	out := map[string]string{}
	f.fs.VisitAll(func(fl *flag.Flag) {
		out[fl.Name] = fl.Value.String()
	})
	return out
}

// validate cross-checks flag combinations the binaries used to check by
// hand.
func (f *Flags) validate() error {
	if strOf(f.flight) != "" && !f.MonitorOn() {
		return fmt.Errorf("-flight-recorder needs -monitor")
	}
	if f.CaptureProfileOn() && f.ArchiveDir() == "" {
		return fmt.Errorf("-capture-profile needs -archive")
	}
	if d := f.RuntimeSampleEvery(); d < 0 {
		return fmt.Errorf("-runtime-sample must be >= 0, got %s", d)
	}
	if _, err := ParseLevel(strOf(f.logLevel)); err != nil {
		return err
	}
	return nil
}
