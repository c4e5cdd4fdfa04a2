package parfs

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"senkf/internal/sim"
	"senkf/internal/trace"
)

func simpleConfig() Config {
	return Config{
		OSTs:              4,
		ConcurrencyPerOST: 1,
		SeekTime:          0.001,
		ByteTime:          1e-6,
		BackboneStreams:   0,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{OSTs: 0, ConcurrencyPerOST: 1}).Validate(); err == nil {
		t.Error("expected OST error")
	}
	if err := (Config{OSTs: 1, ConcurrencyPerOST: 0}).Validate(); err == nil {
		t.Error("expected concurrency error")
	}
	if err := (Config{OSTs: 1, ConcurrencyPerOST: 1, SeekTime: -1}).Validate(); err == nil {
		t.Error("expected seek-time error")
	}
	if err := (Config{OSTs: 1, ConcurrencyPerOST: 1, BackboneStreams: -1}).Validate(); err == nil {
		t.Error("expected backbone error")
	}
	if err := DefaultConfig.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSingleReadServiceTime(t *testing.T) {
	env := sim.NewEnv()
	fs, err := New(env, simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var took float64
	env.Go("r", func(p *sim.Proc) {
		took = fs.Read(p, 0, 3, 1000)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 3*0.001 + 1000*1e-6
	if math.Abs(took-want) > 1e-12 {
		t.Errorf("read took %g, want %g", took, want)
	}
	s := fs.Stats()
	if s.Requests != 1 || s.Seeks != 3 || s.BytesRead != 1000 {
		t.Errorf("stats %+v", s)
	}
	if s.WaitTime != 0 {
		t.Errorf("uncontended read waited %g", s.WaitTime)
	}
}

func TestSameOSTSerializes(t *testing.T) {
	env := sim.NewEnv()
	fs, err := New(env, simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two readers of the same file (same OST, concurrency 1) serialize.
	for i := 0; i < 2; i++ {
		env.Go("r", func(p *sim.Proc) {
			fs.Read(p, 0, 0, 1000)
		})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-2e-3) > 1e-12 {
		t.Errorf("two serialized reads ended at %g, want 0.002", end)
	}
	if fs.Stats().WaitTime <= 0 {
		t.Error("expected queueing wait time")
	}
}

func TestDifferentOSTsRunInParallel(t *testing.T) {
	env := sim.NewEnv()
	fs, err := New(env, simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Files 0 and 1 live on different OSTs; reads overlap fully.
	for i := 0; i < 2; i++ {
		file := i
		env.Go("r", func(p *sim.Proc) {
			fs.Read(p, file, 0, 1000)
		})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1e-3) > 1e-12 {
		t.Errorf("parallel reads ended at %g, want 0.001", end)
	}
}

func TestOSTPlacementRoundRobin(t *testing.T) {
	env := sim.NewEnv()
	fs, err := New(env, simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fs.OSTOf(0) != 0 || fs.OSTOf(1) != 1 || fs.OSTOf(4) != 0 || fs.OSTOf(7) != 3 {
		t.Error("round-robin placement wrong")
	}
	if fs.OSTOf(-3) != 3 {
		t.Error("negative file ids should still map")
	}
}

func TestBackboneCapsAggregateParallelism(t *testing.T) {
	cfg := simpleConfig()
	cfg.OSTs = 8
	cfg.BackboneStreams = 2
	env := sim.NewEnv()
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 reads on 8 distinct OSTs, but the backbone only sustains 2 at a
	// time: 8 unit reads take 4 units.
	for i := 0; i < 8; i++ {
		file := i
		env.Go("r", func(p *sim.Proc) {
			fs.Read(p, file, 0, 1000)
		})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-4e-3) > 1e-12 {
		t.Errorf("backbone-limited reads ended at %g, want 0.004", end)
	}
}

func TestPerOSTConcurrency(t *testing.T) {
	cfg := simpleConfig()
	cfg.ConcurrencyPerOST = 3
	env := sim.NewEnv()
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 6 readers of one OST at concurrency 3: two waves.
	for i := 0; i < 6; i++ {
		env.Go("r", func(p *sim.Proc) {
			fs.Read(p, 4, 0, 1000) // file 4 -> OST 0
		})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-2e-3) > 1e-12 {
		t.Errorf("ended at %g, want 0.002", end)
	}
}

func TestSeekDominatedBlockReadVsBarRead(t *testing.T) {
	// The §4.1 asymmetry at file-system level: a block read with one seek
	// per row is far slower than a bar read moving the same bytes.
	cfg := simpleConfig()
	env := sim.NewEnv()
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blockTime, barTime float64
	env.Go("block", func(p *sim.Proc) {
		blockTime = fs.Read(p, 0, 180, 1e4) // 180 row seeks
	})
	env.Go("bar", func(p *sim.Proc) {
		barTime = fs.Read(p, 1, 1, 1e4) // single seek
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !(blockTime > 5*barTime) {
		t.Errorf("block read %g not much slower than bar read %g", blockTime, barTime)
	}
}

func TestInvalidReadPanics(t *testing.T) {
	env := sim.NewEnv()
	fs, err := New(env, simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative seeks")
			}
		}()
		fs.Read(p, 0, -1, 10)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	env := sim.NewEnv()
	if _, err := New(env, Config{}); err == nil {
		t.Error("expected config error")
	}
}

// perOST is a ReadObserver that attributes each read to its storage target,
// as the wire collector does.
type perOST struct {
	requests []int
	bytes    []float64
	service  []float64
}

func (o *perOST) OnRead(ost int, bytes float64, start, wait, service float64, degraded, outage bool) {
	o.requests[ost]++
	o.bytes[ost] += bytes
	o.service[ost] += service
}

func TestPerOSTStatsSumToTotals(t *testing.T) {
	env := sim.NewEnv()
	cfg := simpleConfig()
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &perOST{make([]int, cfg.OSTs), make([]float64, cfg.OSTs), make([]float64, cfg.OSTs)}
	fs.SetReadObserver(obs)
	for f := 0; f < 10; f++ {
		file := f
		env.Go(fmt.Sprintf("r%d", f), func(p *sim.Proc) {
			fs.Read(p, file, 2, 1000)
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var reqs int
	var bytes, service float64
	for o := range obs.requests {
		reqs += obs.requests[o]
		bytes += obs.bytes[o]
		service += obs.service[o]
	}
	tot := fs.Stats()
	if reqs != tot.Requests || bytes != tot.BytesRead || math.Abs(service-tot.ServiceTime) > 1e-12 {
		t.Errorf("per-OST sums (%d,%g,%g) != totals (%d,%g,%g)",
			reqs, bytes, service, tot.Requests, tot.BytesRead, tot.ServiceTime)
	}
	// Round-robin placement: file f lands on OST f%4, so 10 files spread
	// 3/3/2/2.
	if want := []int{3, 3, 2, 2}; !slices.Equal(obs.requests, want) {
		t.Errorf("placement: %v reads per OST, want %v", obs.requests, want)
	}
}

func TestReadEmitsServiceSpans(t *testing.T) {
	env := sim.NewEnv()
	buf := trace.NewBuffer()
	tr := trace.New(env.Now, buf)
	tr.SetCounters(trace.NewRegistry())
	env.SetTracer(tr)
	cfg := simpleConfig()
	cfg.ConcurrencyPerOST = 1
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two readers of the same file serialize on the single-slot OST.
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			fs.Read(p, 0, 1, 100)
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	var services int
	var queued bool
	for _, ev := range events {
		if ev.Cat == trace.CatOST && ev.Name == "service" && ev.Track == "ost0" {
			services++
			if v, ok := ev.ArgValue("seeks"); !ok || v != 1 {
				t.Errorf("service span seeks = %v, want 1", v)
			}
		}
		if ev.Cat == trace.CatOST && ev.Name == "queued" {
			queued = true
		}
	}
	if services != 2 {
		t.Errorf("service spans = %d, want 2", services)
	}
	if !queued {
		t.Error("second reader queued but no queued instant emitted")
	}
	// The single-slot OST must never service two requests at once.
	mc := trace.MaxConcurrent(events, "ost", trace.CatOST, "service")
	if mc["ost0"] != 1 {
		t.Errorf("ost0 concurrency = %d, want 1", mc["ost0"])
	}
	reg := tr.Counters()
	if got := reg.CounterValue("parfs.seeks"); got != 2 {
		t.Errorf("parfs.seeks = %v, want 2", got)
	}
	if got := reg.CounterValue("parfs.bytes"); got != 200 {
		t.Errorf("parfs.bytes = %v, want 200", got)
	}
}
