package trace

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// blockingSink blocks every Emit until released, then records.
type blockingSink struct {
	release chan struct{}
	mu      sync.Mutex
	events  []Event
}

func (b *blockingSink) Emit(ev Event) {
	<-b.release
	b.mu.Lock()
	b.events = append(b.events, ev)
	b.mu.Unlock()
}

func (b *blockingSink) snapshot() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

func teeEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Track: "p0", Cat: "phase", Name: fmt.Sprintf("e%d", i), Ph: PhaseInstant, Ts: float64(i)}
	}
	return evs
}

// TestTeePrimaryNeverBlocksOrReorders is the fan-out guarantee: with the
// secondary fully stalled, every event still reaches the primary sink
// immediately and in emission order.
func TestTeePrimaryNeverBlocksOrReorders(t *testing.T) {
	primary := NewBuffer()
	sec := &blockingSink{release: make(chan struct{})}
	tee := NewTee(primary, sec)
	defer tee.Close()

	evs := teeEvents(100)
	for _, ev := range evs {
		tee.Emit(ev) // must not block even though sec accepts nothing yet
	}
	if got := primary.Events(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("primary saw %d events, want the %d emitted in order", len(got), len(evs))
	}
	if len(sec.snapshot()) != 0 {
		t.Fatal("stalled secondary received events")
	}
	close(sec.release)
	tee.Flush()
	if got := sec.snapshot(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("secondary saw %d events after flush, want all %d in order", len(got), len(evs))
	}
}

// TestTeeThroughTracer exercises the tee as a tracer sink: the primary
// buffer's contents must be byte-identical to a tracer without the tee.
func TestTeeThroughTracer(t *testing.T) {
	clock := func() float64 { return 0 }

	plain := NewBuffer()
	tr1 := New(clock, plain)
	teed := NewBuffer()
	mon := NewBuffer()
	tee := NewTee(teed, mon)
	tr2 := New(clock, tee)

	for _, tr := range []*Tracer{tr1, tr2} {
		tr.Span("io/g0/r0", "phase", "read", 0, 1, Arg{Key: "stage", Val: 0})
		tr.Instant("comp/x0y0", "stage", "ready", 1)
		tr.Counter("model", "model/t_read", 0, 0.5)
	}
	tee.Close()
	if !reflect.DeepEqual(plain.Events(), teed.Events()) {
		t.Fatal("teed primary diverged from a tee-less tracer")
	}
	if !reflect.DeepEqual(plain.Events(), mon.Events()) {
		t.Fatal("secondary did not receive the full ordered stream")
	}
}

// TestTeeConcurrentEmitters hammers the tee from many goroutines (run
// under -race): every event must arrive exactly once at both sinks, and
// the secondary must preserve the primary's order.
func TestTeeConcurrentEmitters(t *testing.T) {
	primary := NewBuffer()
	sec := NewBuffer()
	tee := NewTee(primary, sec)
	tr := New(func() float64 { return 0 }, tee)

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Instant(fmt.Sprintf("p%d", w), "phase", "tick", float64(i))
			}
		}(w)
	}
	wg.Wait()
	tee.Flush()
	tee.Close()
	if primary.Len() != workers*per || sec.Len() != workers*per {
		t.Fatalf("primary %d / secondary %d events, want %d each", primary.Len(), sec.Len(), workers*per)
	}
	if !reflect.DeepEqual(primary.Events(), sec.Events()) {
		t.Fatal("secondary order diverged from primary order")
	}
}

func TestTeeNilSides(t *testing.T) {
	// Monitor-only: nil primary.
	sec := NewBuffer()
	tee := NewTee(nil, sec)
	tee.Emit(Event{Name: "a"})
	tee.Flush()
	tee.Close()
	if sec.Len() != 1 {
		t.Fatalf("secondary got %d events, want 1", sec.Len())
	}
	// Pass-through: nil secondary.
	primary := NewBuffer()
	tee = NewTee(primary, nil)
	tee.Emit(Event{Name: "b"})
	tee.Flush()
	tee.Close()
	if primary.Len() != 1 {
		t.Fatalf("primary got %d events, want 1", primary.Len())
	}
}

// TestRegistryConcurrentWriters drives counters, gauges and histograms
// from many goroutines while snapshots are taken concurrently — the race
// detector is the assertion, plus exact final totals.
func TestRegistryConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Inc("shared.count")
				reg.Add("shared.bytes", 2)
				reg.SetGauge("shared.gauge", float64(i))
				reg.Observe("shared.hist", float64(i)*1e-5)
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.CounterValue("shared.count"); got != workers*per {
		t.Fatalf("shared.count = %g, want %d", got, workers*per)
	}
	if got := reg.CounterValue("shared.bytes"); got != 2*workers*per {
		t.Fatalf("shared.bytes = %g, want %d", got, 2*workers*per)
	}
	s := reg.Snapshot()
	for _, h := range s.Histograms {
		if h.Name == "shared.hist" && h.Count != workers*per {
			t.Fatalf("histogram count = %d, want %d", h.Count, workers*per)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Add("parfs.requests", 42)
	reg.SetGauge("model/t_read", 0.25)
	reg.SetGauge("model/t_read", 0.125)
	reg.Observe("monitor/read_latency", 0.05)
	reg.Observe("monitor/read_latency", 0.5)
	reg.Observe("monitor/read_latency", 5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b, "senkf_"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE senkf_parfs_requests counter\nsenkf_parfs_requests 42\n",
		"senkf_model_t_read 0.125\n",
		"senkf_model_t_read_max 0.25\n",
		`senkf_monitor_read_latency_bucket{le="0.1"} 1`,
		`senkf_monitor_read_latency_bucket{le="1"} 2`,
		`senkf_monitor_read_latency_bucket{le="+Inf"} 3`,
		"senkf_monitor_read_latency_sum 5.55\n",
		"senkf_monitor_read_latency_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}
