// The run's one HTTP server and its whole-run CPU capture. -profile
// starts a private mux (never http.DefaultServeMux) serving the standard
// /debug/pprof/ endpoints, the run's registry in Prometheus text at
// /metrics and, with -monitor, the live JSON summary at /status.

package runlog

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"time"
)

// serve starts the run's server on addr.
func (s *Session) serve(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", s.serveMetrics)
	if s.Monitor != nil {
		mux.HandleFunc("/status", s.serveStatus)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("runlog: -profile: %w", err)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.srvAddr = ln.Addr().String()
	go s.srv.Serve(ln)
	return nil
}

// serveMetrics renders the run's registry. The scrape adds nothing to it:
// the runtime's readings are the sampler's runtime/* gauges
// (-runtime-sample).
func (s *Session) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Info-metric idiom: the run ID rides one labeled constant sample
	// rather than a label on every series, so existing scrape configs and
	// the CI greps keep matching. A failed write means the scraper hung
	// up: there is no one to tell.
	fmt.Fprintf(w, "# TYPE senkf_run_info gauge\nsenkf_run_info{run_id=%q} 1\n", s.RunID)
	_ = s.Registry.WritePrometheus(w, "senkf_")
}

// serveStatus renders the monitor's live summary as indented JSON.
func (s *Session) serveStatus(w http.ResponseWriter, _ *http.Request) {
	data, err := jsonMarshalIndent(s.Monitor.Status())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data) // as in serveMetrics, a failed write has no one to tell
}

// startCPUCapture begins the whole-run CPU capture (-capture-profile) and
// returns the stop function, which ends profiling and returns the
// accumulated profile; Finish calls it. Errors if CPU profiling is already
// running — e.g. a concurrent /debug/pprof/profile request; the stop
// function is idempotent.
func startCPUCapture() (stop func() []byte, err error) {
	var buf bytes.Buffer
	if err := rpprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("runlog: cpu capture: %w", err)
	}
	stopped := false
	return func() []byte {
		if !stopped {
			stopped = true
			rpprof.StopCPUProfile()
		}
		return buf.Bytes()
	}, nil
}
