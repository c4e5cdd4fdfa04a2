// Chrome trace-event JSON export and import. The format is the JSON
// object flavour documented by the Trace Event Format spec and consumed by
// Perfetto (ui.perfetto.dev) and chrome://tracing: an object with a
// "traceEvents" array whose entries carry ph/ts/dur/pid/tid. Timestamps
// are microseconds. Every distinct Track becomes one thread (tid) of a
// single process, named via "thread_name" metadata events, so the UI shows
// one row per simulated processor / OST / rank.

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

const chromePid = 1

// secondsToMicros converts the tracer's second-denominated timestamps to
// the microseconds Chrome expects.
func secondsToMicros(s float64) float64 { return s * 1e6 }

// WriteChrome writes the events as Chrome trace-event JSON. Tracks are
// assigned tids in order of first appearance and named with thread_name
// metadata so Perfetto groups events per processor.
func WriteChrome(w io.Writer, events []Event) error {
	tids := map[string]int{}
	var order []string
	for _, ev := range events {
		if _, ok := tids[ev.Track]; !ok {
			tids[ev.Track] = len(tids)
			order = append(order, ev.Track)
		}
	}
	// Stream the JSON by hand: one traceEvents array, metadata first. At
	// the 12,000-processor scale traces run to hundreds of thousands of
	// events; building one giant value would double peak memory.
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(discardNewlines{w})
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ce)
	}
	for _, track := range order {
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tids[track],
			Args: map[string]any{"name": track},
		}); err != nil {
			return err
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(rune(ev.Ph)),
			Ts:   secondsToMicros(ev.Ts),
			Pid:  chromePid,
			Tid:  tids[ev.Track],
		}
		switch ev.Ph {
		case PhaseSpan:
			d := secondsToMicros(ev.Dur)
			ce.Dur = &d
		case PhaseInstant:
			ce.S = "t" // thread-scoped instant
		}
		if len(ev.Args) > 0 {
			ce.Args = make(map[string]any, len(ev.Args))
			for _, a := range ev.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// discardNewlines drops the newline json.Encoder appends after every
// value, keeping the output a single line of valid JSON.
type discardNewlines struct{ w io.Writer }

func (d discardNewlines) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 && p[len(p)-1] == '\n' {
		p = p[:len(p)-1]
	}
	if len(p) == 0 {
		return n, nil
	}
	if _, err := d.w.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteChrome exports the buffered events (see WriteChrome).
func (b *Buffer) WriteChrome(w io.Writer) error {
	b.mu.Lock()
	events := b.events
	b.mu.Unlock()
	return WriteChrome(w, events)
}

// ReadChrome decodes Chrome trace-event JSON written by WriteChrome back
// into events, resolving tids to track names via the thread_name metadata.
// It is the decoding half of the export round-trip the tests validate, and
// rejects what WriteChrome never writes: a phase outside X/i/C/M, a span
// without dur, a negative dur, or a ts or dur whose microseconds overflow
// when re-encoded. A dur on any other phase is ignored.
func ReadChrome(r io.Reader) ([]Event, error) {
	var ct chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace: decode chrome JSON: %w", err)
	}
	tracks := map[int]string{}
	for _, ce := range ct.TraceEvents {
		if ce.Ph == "M" && ce.Name == "thread_name" {
			if name, ok := ce.Args["name"].(string); ok {
				tracks[ce.Tid] = name
			}
		}
	}
	var out []Event
	for i, ce := range ct.TraceEvents {
		var dur float64
		switch ce.Ph {
		case "M":
			continue
		case "X":
			if ce.Dur == nil {
				return nil, fmt.Errorf("trace: event %d: span without dur", i)
			}
			if *ce.Dur < 0 {
				return nil, fmt.Errorf("trace: event %d: negative dur %g", i, *ce.Dur)
			}
			dur = *ce.Dur / 1e6
		case "i", "C":
		default:
			return nil, fmt.Errorf("trace: event %d: unsupported phase %q", i, ce.Ph)
		}
		track, ok := tracks[ce.Tid]
		if !ok {
			return nil, fmt.Errorf("trace: event %d on unnamed tid %d", i, ce.Tid)
		}
		ev := Event{
			Track: track,
			Cat:   ce.Cat,
			Name:  ce.Name,
			Ph:    ce.Ph[0],
			Ts:    ce.Ts / 1e6,
			Dur:   dur,
		}
		// ts/1e6·1e6 can round past the largest float, near ±1.8e308.
		if math.IsInf(secondsToMicros(ev.Ts), 0) || math.IsInf(secondsToMicros(ev.Dur), 0) {
			return nil, fmt.Errorf("trace: event %d: ts %g or dur beyond the float range in microseconds", i, ce.Ts)
		}
		if len(ce.Args) > 0 {
			keys := make([]string, 0, len(ce.Args))
			for k := range ce.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if v, ok := ce.Args[k].(float64); ok {
					ev.Args = append(ev.Args, Arg{Key: k, Val: v})
				}
			}
		}
		out = append(out, ev)
	}
	return out, nil
}
