package report

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"senkf/internal/trace"
)

// FuzzChromeReport feeds the Chrome trace reader and the report builder
// hostile bytes. The seed corpus (testdata/fuzz/FuzzChromeReport) holds a
// WriteChrome of a traced quick-suite run at np = 4, an empty traceEvents,
// a span without dur and one with a negative dur, an event on an unnamed
// tid, a tid named twice, timestamps of ±1e308 and of the largest float,
// and a tuner prediction on a 1e18-row mesh. Properties: ReadChrome and
// Build never panic or hang, and a trace ReadChrome accepts re-encodes
// through WriteChrome and decodes to the same events — tracks, categories,
// names, phases and args in the same order, ts and dur within 1e-12
// relative. The last two seeds caught bugs: the largest float overflowed
// to +Inf on re-encoding, and the mesh kept Build's retune running for
// more than 30 s.
func FuzzChromeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		Build(events) // an error is an answer; a panic is not
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, events); err != nil {
			t.Fatalf("WriteChrome of an accepted trace: %v", err)
		}
		back, err := trace.ReadChrome(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(events) {
			t.Fatalf("round trip changed the event count: %d -> %d", len(events), len(back))
		}
		for i, a := range events {
			b := back[i]
			if a.Track != b.Track || a.Cat != b.Cat || a.Name != b.Name || a.Ph != b.Ph ||
				!slices.Equal(a.Args, b.Args) || !near(a.Ts, b.Ts) || !near(a.Dur, b.Dur) {
				t.Fatalf("round trip changed event %d:\n got %+v\nwant %+v", i, b, a)
			}
		}
	})
}

// near reports whether a and b agree within 1e-12 relative.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
