// Session: one binary invocation's observability context. Start() mints
// the run ID, builds the logger and the sink set the flags asked for
// (trace buffer, monitor tee, counter registry, the -profile server), and
// Finish() lands everything — trace file, counter dumps, monitor
// summary, and the archived run record when -archive is set.

package runlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// ErrInterrupted is the run outcome when SIGINT/SIGTERM lands gracefully:
// the session finishes (trace flushed, record archived with outcome
// "interrupted") before the process exits with the conventional 128+signal
// status.
var ErrInterrupted = errors.New("runlog: interrupted by signal")

// Session is the per-invocation observability context.
type Session struct {
	// RunID is this invocation's run-ledger identity.
	RunID string
	// Log is the run's structured logger (every line carries RunID).
	Log *slog.Logger
	// Registry is the run's counter/gauge/histogram registry, the one
	// the monitor counts into too.
	Registry *trace.Registry
	// Tracer is the configured tracer — nil when no sink or counter
	// consumer was requested, exactly like the hand-wired binaries.
	Tracer *trace.Tracer
	// Monitor is the live monitor, nil without -monitor.
	Monitor *monitor.Monitor
	// Wire is the wire-telemetry collector, nil without -wire. It
	// implements plan.MsgObserver and, structurally, the substrate observer
	// interfaces (mpi.MsgObserver, parfs.ReadObserver) — binaries attach it
	// to Problem.Msgs / schedule Config.Msgs+Reads. With -monitor the
	// monitor reads it too (monitor.Options.Wire); it is built first.
	Wire *wire.Collector

	flags   *Flags
	start   time.Time
	buf     *trace.Buffer
	archive *Archive

	srv     *http.Server // the -profile server (serve.go), nil without it
	srvAddr string

	sampler *runtimeobs.Sampler
	labels  *runtimeobs.LabelSet
	cpuStop func() []byte // whole-run CPU capture, nil without -capture-profile

	algorithm string
	substrate string
	spec      *SpecInfo
	planHash  string
	faults    []byte
	notes     map[string]string

	mu          sync.Mutex
	cycles      []CycleSample
	finished    bool
	parentRun   string
	resumeCycle int
	onInterrupt []func()
	sigCh       chan os.Signal
}

// Start validates the flag combination and builds the session: run ID,
// logger, archive, trace buffer, monitor tee, tracer, and the -profile
// server. Call it once, after flag parsing.
func (f *Flags) Start() (*Session, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	now := time.Now()
	s := &Session{
		RunID:    NewRunID(f.binary, now, nil),
		Registry: trace.NewRegistry(),
		flags:    f,
		start:    now,
		notes:    map[string]string{},
	}
	level, _ := ParseLevel(strOf(f.logLevel))
	s.Log = NewLogger(os.Stderr, level, s.RunID).With("binary", f.binary)

	if dir := f.ArchiveDir(); dir != "" {
		a, err := Open(dir)
		if err != nil {
			return nil, err
		}
		s.archive = a
	}

	// The monitor attaches as the secondary side of a tee: the primary
	// Chrome-trace sink (when any) is untouched, and an unmonitored run
	// executes the identical code path with a nil monitor.
	var primary trace.Sink
	if f.TraceOut() != "" || s.archive != nil || f.keepEvents {
		s.buf = trace.NewBuffer()
		primary = s.buf
	}
	if f.WireOn() {
		s.Wire = wire.NewCollector()
	}
	if f.MonitorOn() {
		opts := monitor.Options{
			DumpPath: strOf(f.flight),
			Registry: s.Registry,
			RunID:    s.RunID,
			Logger:   s.Log,
			Wire:     s.Wire,
		}
		s.Monitor = monitor.New(opts)
		primary = s.Monitor.Tee(primary)
	}
	if primary != nil || f.CountersOn() {
		var sinks []trace.Sink
		if primary != nil {
			sinks = append(sinks, primary)
		}
		s.Tracer = trace.New(nil, sinks...)
		s.Tracer.SetCounters(s.Registry)
	}

	if every := f.RuntimeSampleEvery(); every > 0 {
		s.sampler = runtimeobs.NewSampler(runtimeobs.SamplerConfig{
			Tracer:   s.Tracer,
			Registry: s.Registry,
			Interval: every,
		})
		s.sampler.Start()
		s.Log.Info("runtime sampler started", "interval", every.String())
	}
	if f.CaptureProfileOn() {
		stop, err := startCPUCapture()
		if err != nil {
			// A concurrent profiler owns the CPU profile; degrade rather
			// than fail the run.
			s.Log.Warn("whole-run cpu capture unavailable", "err", err.Error())
		} else {
			s.cpuStop = stop
			s.Log.Info("whole-run cpu capture started")
		}
	}

	if addr := strOf(f.profile); addr != "" {
		if err := s.serve(addr); err != nil {
			s.close()
			return nil, err
		}
		s.Log.Info("serving", "pprof", fmt.Sprintf("http://%s/debug/pprof/", s.srvAddr), "metrics", fmt.Sprintf("http://%s/metrics", s.srvAddr))
	}
	// Graceful shutdown: the first SIGINT/SIGTERM lands the session —
	// registered interrupt hooks run (e.g. a final checkpoint cut), the
	// trace flushes, the record archives with outcome "interrupted" — then
	// the process exits 128+signal. Delivery stops after the first signal,
	// so a second one kills hard with the default disposition.
	s.sigCh = make(chan os.Signal, 1)
	signal.Notify(s.sigCh, os.Interrupt, syscall.SIGTERM)
	go s.watchSignals()

	s.Log.Info("run start")
	return s, nil
}

// watchSignals is the session's signal goroutine.
func (s *Session) watchSignals() {
	sig, ok := <-s.sigCh
	if !ok {
		return
	}
	signal.Stop(s.sigCh)
	s.Log.Warn("signal received, landing session", "signal", sig.String())
	s.mu.Lock()
	hooks := append([]func(){}, s.onInterrupt...)
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	s.Finish(ErrInterrupted)
	code := 130 // 128 + SIGINT
	if sig == syscall.SIGTERM {
		code = 143
	}
	os.Exit(code)
}

// OnInterrupt registers fn to run before the session lands on
// SIGINT/SIGTERM — e.g. cutting a final checkpoint. Hooks run in
// registration order on the signal goroutine.
func (s *Session) OnInterrupt(fn func()) {
	s.mu.Lock()
	s.onInterrupt = append(s.onInterrupt, fn)
	s.mu.Unlock()
}

// SetParent records run lineage: this run resumed from a checkpoint cut by
// parentRunID and re-entered the cycle loop at resumeCycle.
func (s *Session) SetParent(parentRunID string, resumeCycle int) {
	s.mu.Lock()
	s.parentRun, s.resumeCycle = parentRunID, resumeCycle
	s.mu.Unlock()
	s.Log.Info("resumed from checkpoint", "parent_run", parentRunID, "resume_cycle", resumeCycle)
}

// Events returns the run's buffered events so far, in emission order: nil
// unless -trace, -archive or Flags.KeepEvents made the session keep them.
func (s *Session) Events() []trace.Event {
	if s.buf == nil {
		return nil
	}
	return s.buf.Events()
}

// PlanHash returns the compiled plan's content address recorded by
// Describe, or "" before Describe (or when hashing failed).
func (s *Session) PlanHash() string { return s.planHash }

// Labels returns the run's pprof label set for plan execution
// (Problem.Prof, cycle Config.Prof). Nil — meaning labeling is
// disabled, at zero cost — until Describe runs with a profiling surface
// active; a nil *LabelSet is safe to use everywhere.
func (s *Session) Labels() *runtimeobs.LabelSet { return s.labels }

// Observer returns the monitor as a plan.RunObserver, or a nil interface
// when the session is unmonitored (assigning a typed nil *Monitor into
// Problem.Obs would make the interface non-nil).
func (s *Session) Observer() plan.RunObserver {
	if s.Monitor == nil {
		return nil
	}
	return s.Monitor
}

// MsgObserver returns the wire collector as a plan.MsgObserver, or a nil
// interface without -wire (same typed-nil guard as Observer).
func (s *Session) MsgObserver() plan.MsgObserver {
	if s.Wire == nil {
		return nil
	}
	return s.Wire
}

// Describe records what the run executes: the algorithm name, the
// substrate ("real" or "simulated"), and — when a compiled plan is at
// hand — the spec summary and content-addressed plan hash.
func (s *Session) Describe(algorithm, substrate string, cp *plan.Compiled) {
	s.algorithm, s.substrate = algorithm, substrate
	// Mint the run's pprof label set when any profiling surface exists:
	// the whole-run capture or a live /debug/pprof server. Labels are
	// inherited at goroutine spawn, so this must happen before the plan
	// executes.
	if s.cpuStop != nil || s.srv != nil {
		s.labels = runtimeobs.Labels(s.RunID, algorithm, substrate)
	}
	if cp != nil {
		s.spec = SpecSummary(cp)
		if h, err := PlanHash(cp); err == nil {
			s.planHash = h
		} else {
			s.Log.Warn("plan hash failed", "err", err.Error())
		}
	}
	args := []any{"algorithm", algorithm, "substrate", substrate}
	if s.planHash != "" {
		args = append(args, "plan_hash", s.planHash)
	}
	s.Log.Info("run describe", args...)
}

// SetFaults attaches the run's fault-injection plan to the manifest.
func (s *Session) SetFaults(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.Log.Warn("fault plan not serializable", "err", err.Error())
		return
	}
	s.faults = data
}

// Note records one extra manifest config entry (e.g. the tuner's choice)
// beyond the flag set.
func (s *Session) Note(key, value string) {
	s.mu.Lock()
	s.notes[key] = value
	s.mu.Unlock()
}

// CycleSample is one assimilation cycle's outcome, published by
// senkf-cycle so a multi-cycle run reads like a long-lived service.
type CycleSample struct {
	Cycle           int     `json:"cycle"`
	BackgroundRMSE  float64 `json:"background_rmse"`
	AnalysisRMSE    float64 `json:"analysis_rmse"`
	FreeRMSE        float64 `json:"free_rmse"`
	Spread          float64 `json:"spread"`
	DegradedMembers int     `json:"degraded_members"`
}

// RecordCycle is the one writer of the run's cycle series: the archive's
// cycles.json and the registry's cycle/* gauges (the current cycle) and
// cycle/analysis_rmse_hist (the run so far), monitored or not.
func (s *Session) RecordCycle(c CycleSample) {
	s.mu.Lock()
	s.cycles = append(s.cycles, c)
	s.mu.Unlock()
	s.Registry.SetGauge("cycle/index", float64(c.Cycle))
	s.Registry.SetGauge("cycle/rmse_background", c.BackgroundRMSE)
	s.Registry.SetGauge("cycle/rmse_analysis", c.AnalysisRMSE)
	s.Registry.SetGauge("cycle/rmse_free", c.FreeRMSE)
	s.Registry.SetGauge("cycle/spread", c.Spread)
	s.Registry.SetGauge("cycle/degraded_members", float64(c.DegradedMembers))
	s.Registry.Observe("cycle/analysis_rmse_hist", c.AnalysisRMSE)
}

// close shuts down the sampler, the whole-run CPU capture, the server and
// the monitor tee. Finish has already stopped and landed the first two; on a
// failed Start nothing else would.
func (s *Session) close() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.cpuStop != nil {
		s.cpuStop()
	}
	if s.Monitor != nil {
		s.Monitor.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// Finish lands the run: trace file, counter table, archive record,
// monitor summary, -linger, shutdown — the tail every binary used
// to hand-roll. runErr is the run's outcome (nil for success); it is
// archived either way. Returns the first landing error.
func (s *Session) Finish(runErr error) error {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return nil
	}
	s.finished = true
	s.mu.Unlock()

	// Retire the signal watcher: once the session is landing normally a
	// late signal should get the default hard-kill disposition, not a
	// second landing attempt.
	if s.sigCh != nil {
		signal.Stop(s.sigCh)
		close(s.sigCh)
	}

	// Stop the runtime sampler first — Stop takes one final synchronous
	// sample, and the tee must still be open for it to reach the monitor
	// and the trace buffer.
	if s.sampler != nil {
		s.sampler.Stop()
	}
	// Drain the tee so the monitor's view is complete before we snapshot
	// its status (the primary buffer is written inline and needs no
	// drain).
	if s.Monitor != nil {
		s.Monitor.Close()
	}

	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	if out := s.flags.TraceOut(); out != "" && s.buf != nil {
		fail(writeFileWith(out, func(w io.Writer) error { return s.buf.WriteChrome(w) }))
		if firstErr == nil {
			fmt.Printf("wrote %d trace events to %s\n", s.buf.Len(), out)
		}
	}
	if s.flags.CountersOn() {
		fmt.Println("\nruntime counters:")
		fail(s.Registry.WriteTable(os.Stdout))
	}
	if s.Wire != nil {
		fmt.Println()
		fail(s.Wire.Summary(0).WriteTable(os.Stdout))
	}

	if s.archive != nil {
		if dir, err := s.writeArchiveRecord(runErr); err != nil {
			s.Log.Error("archive write failed", "err", err.Error())
			fail(err)
		} else {
			s.Log.Info("archived run record", "dir", dir)
		}
	}

	if s.Monitor != nil {
		s.writeMonitorSummary(os.Stdout)
	}
	if linger := s.flags.Linger(); s.srv != nil && linger > 0 {
		fmt.Printf("serving http://%s/ for another %s\n", s.srvAddr, linger)
		time.Sleep(linger)
	}

	switch {
	case runErr == nil:
		s.Log.Info("run end", "outcome", "ok", "duration_s", time.Since(s.start).Seconds())
	case errors.Is(runErr, ErrInterrupted):
		s.Log.Warn("run end", "outcome", "interrupted", "duration_s", time.Since(s.start).Seconds())
	default:
		s.Log.Error("run end", "outcome", "error", "err", runErr.Error(), "duration_s", time.Since(s.start).Seconds())
	}
	s.close()
	return firstErr
}

// Fatal reports a run error, lands the session, and exits non-zero — the
// session-aware replacement for log.Fatal after Start().
func (s *Session) Fatal(err error) {
	s.Log.Error(s.flags.binary + ": " + err.Error())
	s.Finish(err)
	os.Exit(1)
}

// writeMonitorSummary prints the post-run monitor block the binaries used
// to print by hand.
func (s *Session) writeMonitorSummary(w io.Writer) {
	st := s.Monitor.Status()
	s.mu.Lock()
	cycles := len(s.cycles)
	s.mu.Unlock()
	if cycles > 0 {
		fmt.Fprintf(w, "monitor: %d cycles published, %d events, %d divergences, %d watchdog verdicts\n",
			cycles, st.Events, st.Conformance.DivergenceCount, len(st.Verdicts))
	} else {
		fmt.Fprintf(w, "monitor: %d events, %d/%d spans conformant, %d divergences, %d watchdog verdicts\n",
			st.Events, st.Conformance.MatchedSpans, st.Conformance.ExpectedSpans,
			st.Conformance.DivergenceCount, len(st.Verdicts))
	}
	for _, v := range st.Verdicts {
		fmt.Fprintf(w, "  watchdog: %s\n", v)
	}
	for _, d := range st.Conformance.Divergences {
		fmt.Fprintf(w, "  divergence: %s\n", d)
	}
	if st.FlightDump != "" {
		fmt.Fprintf(w, "  flight recorder dumped to %s\n", st.FlightDump)
	}
}

// writeArchiveRecord assembles and stores this run's archive record.
func (s *Session) writeArchiveRecord(runErr error) (string, error) {
	files := map[string][]byte{}

	// Land the whole-run CPU capture; senkf-report hotspots attributes it
	// onto the archived trace.
	if s.cpuStop != nil {
		if cpu := s.cpuStop(); len(cpu) > 0 {
			files[CPUProfileFile] = cpu
		}
	}

	m := &Manifest{
		RunID:     s.RunID,
		Binary:    s.flags.binary,
		Start:     s.start.UTC().Format(time.RFC3339),
		DurationS: time.Since(s.start).Seconds(),
		Substrate: s.substrate,
		Config:    s.flags.config(),
		Spec:      s.spec,
		PlanHash:  s.planHash,
		Outcome:   "ok",
	}
	if s.algorithm != "" {
		if m.Spec == nil {
			m.Spec = &SpecInfo{Algorithm: s.algorithm}
		}
	}
	if runErr != nil {
		if errors.Is(runErr, ErrInterrupted) {
			m.Outcome = "interrupted"
		} else {
			m.Outcome = "error"
			m.Error = runErr.Error()
		}
	}
	if len(s.faults) > 0 {
		m.Faults = s.faults
	}
	s.mu.Lock()
	m.ParentRunID = s.parentRun
	m.ResumeCycle = s.resumeCycle
	for k, v := range s.notes {
		if m.Config == nil {
			m.Config = map[string]string{}
		}
		m.Config[k] = v
	}
	cycles := append([]CycleSample(nil), s.cycles...)
	s.mu.Unlock()

	counters := FlattenSnapshot(s.Registry.Snapshot())
	if len(counters) > 0 {
		data, err := jsonMarshalIndent(counters)
		if err != nil {
			return "", err
		}
		files[CountersFile] = data
	}

	if s.buf != nil && s.buf.Len() > 0 {
		var events = s.buf.Events()
		data, err := chromeBytes(events)
		if err != nil {
			return "", err
		}
		files[TraceFile] = data
		// The run report is not stored: Record.Report derives it from
		// trace.json. The manifest keeps its runtime, the last span end,
		// for the list table.
		for _, ev := range events {
			if end := ev.Ts + ev.Dur; ev.Ph == trace.PhaseSpan && end > m.Runtime {
				m.Runtime = end
			}
		}
	}

	if s.Monitor != nil {
		st := s.Monitor.Status()
		m.Verdicts = len(st.Verdicts)
		m.Divergences = st.Conformance.DivergenceCount
		data, err := jsonMarshalIndent(st)
		if err != nil {
			return "", err
		}
		files[MonitorFile] = data
		if dump := s.Monitor.LastDump(); len(dump) > 0 {
			data, err := chromeBytes(dump)
			if err != nil {
				return "", err
			}
			files[FlightFile] = data
		}
	}
	if len(cycles) > 0 {
		m.Cycles = len(cycles)
		data, err := jsonMarshalIndent(cycles)
		if err != nil {
			return "", err
		}
		files[CyclesFile] = data
	}
	if s.Wire != nil {
		data, err := jsonMarshalIndent(s.Wire.Summary(0))
		if err != nil {
			return "", err
		}
		files[WireFile] = data
	}
	return s.archive.WriteRecord(m, files)
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
