// Budget watchdog: every completed phase span is checked against its
// per-stage expected duration. Budgets come from the Eq. 7–10 cost-model
// terms when available (model/t_* counter events of a simulated run);
// without a model the watchdog falls back to the peer median per (phase,
// stage) — a straggler is whoever takes tolerance × longer than its peers. Durations are in the trace's own
// clock: virtual seconds in the simulation, wall seconds on the real
// substrate.

package monitor

import (
	"fmt"
	"sort"
	"strings"

	"senkf/internal/metrics"
	"senkf/internal/trace"
)

type peerKey struct {
	io    bool
	phase string
	stage int
}

type tripKey struct {
	proc  string
	phase string
	stage int
}

// peerMinSamples is the minimum population before peer-median verdicts
// fire, and peerMinSlack the absolute wall-clock floor that keeps
// micro-jitter on very short phases from tripping.
const (
	peerMinSamples = 4
	peerMinSlack   = 1e-3
)

// maxLogged bounds the verdict list and the incident log alike: the wire
// verdicts of EndRun come after every live trip of the run, and a shorter
// incident log could be full before they arrive.
const maxLogged = 256

// Verdict is one watchdog trip: a (proc, phase, stage) that exceeded
// budget × tolerance.
type Verdict struct {
	Proc      string  `json:"proc"`
	Phase     string  `json:"phase"`
	Stage     int     `json:"stage"`
	Observed  float64 `json:"observed_s"`
	Budget    float64 `json:"budget_s"`
	Tolerance float64 `json:"tolerance"`
	// Mode is what the verdict was judged against: "model" (cost-model
	// budget), "peer" (peer-median budget), "wire" (the plan's edge matrix
	// and the storage targets' peers, wire.go) or "runtime" (the runtime
	// watchdog budgets, runtime.go).
	Mode string `json:"mode"`
	// Injected is the announced straggler factor when the trip matches a
	// fault injection (0 otherwise) — the watchdog caught the injection.
	Injected float64 `json:"injected_factor,omitempty"`
	// Edge is the blamed plan edge for starved compute phases.
	Edge string  `json:"edge,omitempty"`
	At   float64 `json:"at_s"`
}

func (v Verdict) String() string {
	s := fmt.Sprintf("%s %s stage %d: %.3gs > %g x %.3gs budget (%s)",
		v.Proc, v.Phase, v.Stage, v.Observed, v.Tolerance, v.Budget, v.Mode)
	if v.Edge != "" {
		s += " awaiting " + v.Edge
	}
	return s
}

// checkBudgetLocked evaluates one completed span against its budget and
// records a verdict + incident (+ flight dump) on the first trip of each
// (proc, phase, stage).
func (m *Monitor) checkBudgetLocked(track, phase string, stage int, ev trace.Event) {
	v := Verdict{
		Proc: track, Phase: phase, Stage: stage,
		Observed: ev.Dur, Tolerance: tolerance,
		At: ev.Ts + ev.Dur,
	}
	if b, ok := m.budgets[phase]; ok && b > 0 {
		if ev.Dur <= b*tolerance {
			return
		}
		v.Budget, v.Mode = b, "model"
	} else {
		// Peer-median fallback: compare against the population of the
		// same phase at the same stage across ranks of the same class.
		k := peerKey{io: strings.HasPrefix(track, metrics.IOPrefix+"/"), phase: phase, stage: stage}
		m.peers[k] = append(m.peers[k], ev.Dur)
		if len(m.peers[k]) < peerMinSamples {
			return
		}
		med := median(m.peers[k])
		if med <= 0 || ev.Dur <= med*tolerance || ev.Dur <= med+peerMinSlack {
			return
		}
		v.Budget, v.Mode = med, "peer"
	}

	tk := tripKey{proc: track, phase: phase, stage: stage}
	if m.tripped[tk] {
		return
	}
	m.tripped[tk] = true
	v.Injected = m.injected[track]
	if strings.HasPrefix(track, metrics.ComputePrefix+"/") && phase == "wait" {
		v.Edge = m.blamedEdgeLocked(track, stage)
	}
	m.tripLocked(v, Incident{
		Kind: "watchdog", Proc: track, Time: v.At,
		Detail: v.String(),
		Edge:   v.Edge,
	}, true)
}

// tripLocked records one watchdog verdict and the incident explaining it.
func (m *Monitor) tripLocked(v Verdict, inc Incident, dump bool) {
	if len(m.verdicts) < maxLogged {
		m.verdicts = append(m.verdicts, v)
	}
	m.reg.Inc("monitor/watchdog_trips")
	m.incidentLocked(inc, dump)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
