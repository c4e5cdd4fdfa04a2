// The flight recorder: a fixed-size ring of the most recent trace events,
// dumped (to a file and/or attached to the wrapped run error) on the
// first anomaly — deadlock, watchdog trip, rank death, or plan
// divergence. The dump is Chrome trace-event JSON, so it replays through
// trace.ReadChrome and folds into a plan.StructuralDAG like any trace.

package monitor

import (
	"fmt"
	"os"
	"strings"

	"senkf/internal/trace"
)

// ring is a fixed-capacity event ring buffer.
type ring struct {
	buf  []trace.Event
	next int
	full bool
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]trace.Event, capacity)}
}

func (r *ring) add(ev trace.Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// events returns the retained events, oldest first.
func (r *ring) events() []trace.Event {
	if !r.full {
		return append([]trace.Event(nil), r.buf[:r.next]...)
	}
	out := make([]trace.Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Incident is one anomaly the monitor observed.
type Incident struct {
	Kind   string  `json:"kind"` // "watchdog", "deadlock", "rank-death", "divergence", "fault"
	Proc   string  `json:"proc,omitempty"`
	Time   float64 `json:"time_s,omitempty"`
	Detail string  `json:"detail"`
	// Edge is the blamed plan edge, when one is derivable.
	Edge string `json:"edge,omitempty"`
}

// incidentLocked records an incident and, when dump is set, triggers the
// flight recorder (first anomaly wins).
func (m *Monitor) incidentLocked(inc Incident, dump bool) {
	if len(m.incidents) < maxLogged {
		m.incidents = append(m.incidents, inc)
		if m.opts.Logger != nil {
			m.opts.Logger.Warn("monitor: incident",
				"kind", inc.Kind, "proc", inc.Proc, "detail", inc.Detail, "edge", inc.Edge)
		}
	}
	m.reg.Inc("monitor/incidents")
	if dump {
		m.dumpLocked()
	}
}

// dumpLocked snapshots the ring (for error attachment and LastDump) and
// writes the dump file if a path is configured. Only the first anomaly
// dumps: the interesting events are the ones leading up to it.
func (m *Monitor) dumpLocked() {
	if m.dumped {
		return
	}
	m.dumped = true
	// Interleave the sampler's last-N runtime samples with the plan
	// events, so the dump shows GC/heap state at the moment of anomaly.
	m.lastDump = mergeByTs(m.ring.events(), m.runtime.ring.events())
	m.reg.Inc("monitor/flight_dumps")
	if m.opts.DumpPath == "" {
		return
	}
	f, err := os.Create(m.opts.DumpPath)
	if err != nil {
		m.reg.Inc("monitor/flight_dump_errors")
		return
	}
	werr := trace.WriteChrome(f, m.lastDump)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		m.reg.Inc("monitor/flight_dump_errors")
		return
	}
	m.dumpPath = m.opts.DumpPath
}

// LastDump returns the flight-recorder snapshot taken at the first
// anomaly (nil when none tripped).
func (m *Monitor) LastDump() []trace.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]trace.Event(nil), m.lastDump...)
}

// RunError decorates a failed run's error with the monitor's context: the
// blamed plan edges and the flight-recorder dump.
type RunError struct {
	Err        error
	Edges      []string // blamed plan edges, most relevant first
	DumpPath   string   // flight-recorder dump file ("" when not written)
	DumpEvents int      // events in the attached dump
}

func (e *RunError) Error() string {
	var b strings.Builder
	b.WriteString(e.Err.Error())
	if len(e.Edges) > 0 {
		shown := e.Edges
		if len(shown) > 4 {
			shown = shown[:4]
		}
		fmt.Fprintf(&b, " [monitor: waiting on plan edge %s", strings.Join(shown, "; "))
		if len(e.Edges) > len(shown) {
			fmt.Fprintf(&b, " (+%d more)", len(e.Edges)-len(shown))
		}
		b.WriteString("]")
	}
	if e.DumpEvents > 0 {
		fmt.Fprintf(&b, " [flight recorder: last %d events", e.DumpEvents)
		if e.DumpPath != "" {
			fmt.Fprintf(&b, " -> %s", e.DumpPath)
		}
		b.WriteString("]")
	}
	return b.String()
}

func (e *RunError) Unwrap() error { return e.Err }
