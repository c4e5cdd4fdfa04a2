package report

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
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
		Build(events, nil) // an error is an answer; a panic is not
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

// FuzzParseCountersCSV feeds the counters CSV parser hostile bytes, and
// builds from the same bytes a registry snapshot for Snapshot.WriteCSV to
// render. The seed corpus (testdata/fuzz/FuzzParseCountersCSV) holds the
// WriteCSV of a registry with a counter, a gauge and a histogram, a header
// alone, names that need quoting, NaN and infinite values, and the damage the
// parser once accepted: a (kind, name, field) given twice, whose first value
// was silently lost, and a kind WriteCSV never writes. Properties: the parser
// never panics; a rendered snapshot parses back to exactly its keys, values
// within the %.6g it is written with — or is refused when two of its rows
// render to one key; and an accepted CSV with one data row repeated, or one
// row's kind renamed, is refused.
func FuzzParseCountersCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ParseCountersCSV(bytes.NewReader(data)); err == nil {
			refusesDamage(t, data)
		}

		snap := snapshotFrom(data)
		var buf bytes.Buffer
		if err := snap.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rendered := buf.Bytes()
		want, unique := csvKeys(snap)
		got, err := ParseCountersCSV(bytes.NewReader(rendered))
		if !unique {
			if err == nil {
				t.Fatalf("two rows of one key were accepted:\n%s", rendered)
			}
			return
		}
		if err != nil {
			t.Fatalf("WriteCSV output refused: %v\n%s", err, rendered)
		}
		if len(got) != len(want) {
			t.Fatalf("%d keys parsed, the snapshot has %d:\n%s", len(got), len(want), rendered)
		}
		for k, v := range want {
			g, ok := got[k]
			if !ok || !(g == v || math.IsNaN(g) && math.IsNaN(v) || math.Abs(g-v) <= 5e-6*math.Abs(v)) {
				t.Fatalf("key %q parsed as %v (present %v), the snapshot holds %v:\n%s", k, g, ok, v, rendered)
			}
		}
		refusesDamage(t, rendered)
	})
}

// refusesDamage fails unless the parser refuses an accepted CSV with one data
// row repeated after itself and with one data row's kind renamed.
func refusesDamage(t *testing.T, accepted []byte) {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(accepted)).ReadAll()
	if err != nil {
		t.Fatalf("accepted CSV does not read back: %v", err)
	}
	first := 0
	if len(rows) > 0 && slices.Equal(rows[0], []string{"kind", "name", "field", "value"}) {
		first = 1
	}
	if first == len(rows) {
		return // no data row to damage
	}
	i := first + (len(rows)-first)/2
	repeated := slices.Insert(slices.Clone(rows), i+1, rows[i])
	renamed := slices.Clone(rows)
	renamed[i] = slices.Clone(rows[i])
	renamed[i][0] += "s"
	for what, damaged := range map[string][][]string{"a row repeated": repeated, "a kind renamed": renamed} {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.WriteAll(damaged); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseCountersCSV(&buf); err == nil {
			t.Fatalf("the CSV with %s (row %d) was accepted:\n%s", what, i+1, buf.Bytes())
		}
	}
}

// snapshotFrom builds a snapshot out of fuzz bytes: a selector byte per
// entry (counter, gauge or histogram), names of up to five characters from an
// alphabet that needs CSV quoting, values from eight raw bytes each (so NaN,
// infinities and subnormals too), and histograms of up to three buckets with
// one or two counts more than buckets (two renders le_inf twice). Two entries
// may share a name.
func snapshotFrom(data []byte) trace.Snapshot {
	const alphabet = "ab./_-, \"\n"
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func() float64 {
		var u uint64
		for i := 0; i < 8; i++ {
			u = u<<8 | uint64(next())
		}
		return math.Float64frombits(u)
	}
	name := func() string {
		b := make([]byte, next()%6)
		for i := range b {
			b[i] = alphabet[int(next())%len(alphabet)]
		}
		return string(b)
	}
	var s trace.Snapshot
	for len(data) > 0 {
		switch next() % 3 {
		case 0:
			s.Counters = append(s.Counters, trace.CounterSnapshot{Name: name(), Value: value()})
		case 1:
			s.Gauges = append(s.Gauges, trace.GaugeSnapshot{Name: name(), Value: value(), HighWater: value()})
		default:
			h := trace.HistogramSnapshot{Name: name(), Buckets: make([]float64, next()%4)}
			for i := range h.Buckets {
				h.Buckets[i] = value()
			}
			h.Counts = make([]int64, len(h.Buckets)+1+int(next()%8/7))
			for i := range h.Counts {
				h.Counts[i] = int64(next())
				h.Count += h.Counts[i]
			}
			h.Sum = value()
			s.Histograms = append(s.Histograms, h)
		}
	}
	return s
}

// csvKeys is what WriteCSV's rows of s say, key by key, and whether no two
// rows say the same key. A value is rendered as an integer when it is one
// below 1e15, with %.6g otherwise; so are bucket bounds in le_ fields.
func csvKeys(s trace.Snapshot) (map[string]float64, bool) {
	out := map[string]float64{}
	unique := true
	put := func(kind, name, field string, v float64) {
		key := kind + "/" + name + "/" + field
		if _, seen := out[key]; seen {
			unique = false
		}
		out[key] = v
	}
	for _, c := range s.Counters {
		put("counter", c.Name, "value", c.Value)
	}
	for _, g := range s.Gauges {
		put("gauge", g.Name, "value", g.Value)
		put("gauge", g.Name, "high-water", g.HighWater)
	}
	for _, h := range s.Histograms {
		put("histogram", h.Name, "count", float64(h.Count))
		put("histogram", h.Name, "sum", h.Sum)
		for i, c := range h.Counts {
			bound := "inf"
			if i < len(h.Buckets) {
				if b := h.Buckets[i]; b == math.Trunc(b) && math.Abs(b) < 1e15 {
					bound = strconv.FormatInt(int64(b), 10)
				} else {
					bound = strconv.FormatFloat(b, 'g', 6, 64)
				}
			}
			put("histogram", h.Name, "le_"+bound, float64(c))
		}
	}
	return out, unique
}
