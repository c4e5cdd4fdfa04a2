// The sampler-through-tee concurrency contract, exercised under -race:
// the runtimeobs sampler publishes on its own goroutine through the same
// trace.Tee as the plan events while the monitor consumes on the drain
// side and HTTP-style readers snapshot status. The sampler must never
// block the primary sink, never reorder its instants, and shut down
// cleanly with the final sample delivered — not dropped in the tee.

package monitor

import (
	"math"
	"testing"
	"time"

	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

func TestSamplerThroughTeeConcurrentWithMonitor(t *testing.T) {
	m := New(Options{})
	primary := trace.NewBuffer()
	tr := trace.New(nil, m.Tee(primary))
	reg := trace.NewRegistry()

	s := runtimeobs.NewSampler(runtimeobs.SamplerConfig{
		Tracer: tr, Registry: reg, Interval: 2 * time.Millisecond,
	})
	s.Start()

	// Concurrent consumers: status snapshots (the /status handler's view)
	// and plan events sharing the tee with the sampler.
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.Status()
		}
	}()
	for i := 0; i < 200; i++ {
		tr.Span("io/g0/r0", trace.CatPhase, "read", float64(i), float64(i)+0.5)
	}

	time.Sleep(25 * time.Millisecond)
	s.Stop() // takes one final synchronous sample through the still-open tee
	close(stop)
	<-readers
	m.Close() // drains the tee's secondary side

	// The primary sink received every sample instant inline — including
	// the final one Stop takes — in emission order.
	var instants []trace.Event
	for _, ev := range primary.Events() {
		if ev.Track == trace.RuntimeTrack && ev.Name == runtimeobs.SampleEventName {
			instants = append(instants, ev)
		}
	}
	if len(instants) < 2 {
		t.Fatalf("sampler took %d samples in 25ms at 2ms cadence", len(instants))
	}
	for i := 1; i < len(instants); i++ {
		if instants[i].Ts < instants[i-1].Ts {
			t.Fatalf("sample instants reordered: Ts %g after %g", instants[i].Ts, instants[i-1].Ts)
		}
	}

	// After Close the monitor folded the identical stream off the drain
	// side — nothing lost between tee and watchdogs.
	if got, want := m.Status().Events, int64(len(primary.Events())); got != want {
		t.Fatalf("monitor folded %d events, primary sink saw %d (final sample dropped?)", got, want)
	}

	// One reading, one name: one runtime-track event per tick, and the
	// registry's runtime/<key> gauges agree with the instants.
	var onTrack int
	for _, ev := range primary.Events() {
		if ev.Track == trace.RuntimeTrack {
			onTrack++
		}
	}
	if onTrack != len(instants) {
		t.Errorf("%d events on the runtime track for %d samples, want one per tick", onTrack, len(instants))
	}
	gauges := map[string]trace.GaugeSnapshot{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g
	}
	for _, a := range instants[len(instants)-1].Args {
		g := gauges["runtime/"+a.Key]
		peak := math.Inf(-1)
		for _, ev := range instants {
			if v, _ := ev.ArgValue(a.Key); v > peak {
				peak = v
			}
		}
		if g.Value != a.Val || g.HighWater != peak {
			t.Errorf("gauge runtime/%s = %g (high-water %g), want the last sample's %g (peak %g)",
				a.Key, g.Value, g.HighWater, a.Val, peak)
		}
	}

	// Stop is idempotent: a second call samples nothing more.
	s.Stop()
	if n := len(primary.Events()); n != len(instants)+200 {
		t.Errorf("primary sink holds %d events after a second Stop, want %d", n, len(instants)+200)
	}
}
