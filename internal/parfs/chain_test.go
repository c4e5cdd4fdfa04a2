package parfs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"senkf/internal/faults"
	"senkf/internal/sim"
	"senkf/internal/trace"
)

// readProgram is a generated workload for the file system: processes that
// start at staggered times and issue batches of reads with pauses between
// them, on a generated geometry with stragglers and fault windows. Every
// duration is a small dyadic rational, so reads and sleeps of different
// processes end at exactly the same instants and the order of equal-time
// events decides what is observed.
type readProgram struct {
	cfg   Config
	plan  faults.Plan
	procs []readProc
}

type readProc struct {
	delay   float64
	batches []readBatch
}

type readBatch struct {
	files []int
	seeks int
	bytes float64
	gap   float64 // sleep after the batch
}

func genReadProgram(seed int64) readProgram {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	g := readProgram{cfg: Config{
		OSTs:              1 + rng.Intn(4),
		ConcurrencyPerOST: 1 + rng.Intn(3),
		SeekTime:          pick(0.25, 0.5, 1),
		ByteTime:          pick(0, 0.125, 0.25),
		BackboneStreams:   rng.Intn(4),
	}}
	for o := 0; o < g.cfg.OSTs; o++ {
		// Up to three windows per OST, each starting where the last ended
		// or a little later: abutting outages make a read stall twice.
		t := pick(0, 0.5, 1, 2)
		for w := rng.Intn(4); w > 0; w-- {
			end := t + pick(0.5, 1, 1.5)
			g.plan.OSTWindows = append(g.plan.OSTWindows, faults.OSTWindow{OST: o, Start: t, End: end, Factor: pick(0, 0, 2, 3)})
			t = end + pick(0, 0, 0.5)
		}
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			g.plan.Stragglers = append(g.plan.Stragglers, faults.Straggler{Proc: fmt.Sprintf("p%d", i), Factor: pick(1.5, 2, 4)})
		}
		pr := readProc{delay: pick(0, 0, 0.5, 1)}
		for b := 1 + rng.Intn(3); b > 0; b-- {
			bt := readBatch{seeks: rng.Intn(3), bytes: pick(0, 2, 4, 8), gap: pick(0, 0.5, 1)}
			for f := rng.Intn(6); f >= 0; f-- {
				bt.files = append(bt.files, rng.Intn(8))
			}
			pr.batches = append(pr.batches, bt)
		}
		g.procs = append(g.procs, pr)
	}
	return g
}

// readLog records every ReadObserver and ReadHook call, bit for bit.
type readLog struct{ bytes.Buffer }

func (l *readLog) OnRead(ost int, b float64, start, wait, service float64, degraded, outage bool) {
	fmt.Fprintf(l, "read ost%d %x %x %x %x %v %v\n", ost, math.Float64bits(b), math.Float64bits(start),
		math.Float64bits(wait), math.Float64bits(service), degraded, outage)
}

func (l *readLog) ReadDone(id int, start, end float64) {
	fmt.Fprintf(l, "done %d %x %x\n", id, math.Float64bits(start), math.Float64bits(end))
}

// readOutcome is everything observable about one run of a program.
type readOutcome struct {
	end      float64
	stats    Stats
	calls    string // observer and hook calls, and each batch's reported time
	registry trace.Snapshot
	chrome   string // the detail trace, as Chrome JSON
}

// run executes g with each batch issued as ReadEach (chained) or as a loop
// of Reads that calls the hook after each (the code ReadEach replaces).
func (g readProgram) run(t *testing.T, chained bool) readOutcome {
	env := sim.NewEnv()
	buf, reg := trace.NewBuffer(), trace.NewRegistry()
	tr := trace.New(env.Now, buf)
	tr.SetDetail(true)
	tr.SetCounters(reg)
	env.SetTracer(tr)
	env.SetSlowdown(g.plan.SlowdownFor)
	fs, err := New(env, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(&g.plan)
	log := &readLog{}
	fs.SetReadObserver(log)
	for i, pr := range g.procs {
		env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Sleep(pr.delay)
			for b, bt := range pr.batches {
				id := 10*i + b
				var took float64
				if chained {
					took = fs.ReadEach(p, bt.files, bt.seeks, bt.bytes, log, id)
				} else {
					t0 := p.Now()
					for _, f := range bt.files {
						start := p.Now()
						fs.Read(p, f, bt.seeks, bt.bytes)
						log.ReadDone(id, start, p.Now())
					}
					took = p.Now() - t0
				}
				fmt.Fprintf(log, "batch %d took %x\n", id, math.Float64bits(took))
				p.Sleep(bt.gap)
			}
		})
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, buf.Events()); err != nil {
		t.Fatal(err)
	}
	return readOutcome{end, fs.Stats(), log.String(), reg.Snapshot(), chrome.String()}
}

// TestReadEachEqualsReadLoopsUnderFaultsAndStragglers: ReadEach is a loop of
// Reads, bit for bit — final time, Stats, the observer and hook sequence,
// the registry and the detail trace — on generated geometries, contention,
// stragglers and outage and degraded windows, abutting ones included. A
// chain that resumed its process through a new event, rather than in place
// of the one that ends its last read, would reorder equal-time wake-ups.
func TestReadEachEqualsReadLoopsUnderFaultsAndStragglers(t *testing.T) {
	var stalls, degraded, waits int
	for seed := int64(1); seed <= 400; seed++ {
		g := genReadProgram(seed)
		loop, each := g.run(t, false), g.run(t, true)
		if loop.end != each.end || loop.stats != each.stats {
			t.Fatalf("seed %d: end %g, %+v as Read loops; %g, %+v as ReadEach", seed, loop.end, loop.stats, each.end, each.stats)
		}
		if loop.calls != each.calls {
			t.Fatalf("seed %d: observer calls differ\nRead loops:\n%s\nReadEach:\n%s", seed, loop.calls, each.calls)
		}
		if !reflect.DeepEqual(loop.registry, each.registry) {
			t.Fatalf("seed %d: registry differs\nRead loops: %+v\nReadEach:   %+v", seed, loop.registry, each.registry)
		}
		if loop.chrome != each.chrome {
			t.Fatalf("seed %d: detail traces differ", seed)
		}
		stalls += loop.stats.OutageStalls
		degraded += loop.stats.DegradedReads
		if loop.stats.WaitTime > 0 {
			waits++
		}
	}
	// The generator must reach what it is for.
	if stalls < 100 || degraded < 100 || waits < 100 {
		t.Errorf("400 programs: %d outage stalls, %d degraded reads, %d programs with queueing", stalls, degraded, waits)
	}
}

// TestReadEachBlockedIsReportedAndUnwound: a process whose chain is queued
// behind capacity nobody releases shows in the DeadlockError as blocked on
// that resource, and the failed run leaves no goroutine behind.
func TestReadEachBlockedIsReportedAndUnwound(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := simpleConfig()
	cfg.BackboneStreams = 1
	env := sim.NewEnv()
	fs, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("ost-holder", func(p *sim.Proc) { fs.osts[1].Acquire(p) })
	env.Go("backbone-holder", func(p *sim.Proc) {
		p.Sleep(1)
		fs.backbone.Acquire(p)
	})
	env.Go("reader", func(p *sim.Proc) {
		fs.ReadEach(p, []int{0, 1}, 1, 0, nil, 0) // file 1 lives on ost1
		t.Error("reader got past an OST nobody released")
	})
	env.Go("late-reader", func(p *sim.Proc) {
		p.Sleep(2)
		fs.ReadEach(p, []int{2}, 1, 0, nil, 0)
		t.Error("late-reader got past a backbone nobody released")
	})
	_, err = env.Run()
	var d *sim.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected a DeadlockError, got %v", err)
	}
	want := []sim.BlockedProc{{Name: "late-reader", WaitingOn: "resource:backbone"}, {Name: "reader", WaitingOn: "resource:ost1"}}
	if !reflect.DeepEqual(d.Blocked, want) {
		t.Errorf("Blocked = %+v, want %+v", d.Blocked, want)
	}
	if !strings.Contains(err.Error(), "reader(resource:ost1)") {
		t.Errorf("error %q does not name the blocked reader", err)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines before, %d after: the failed run left its readers behind", base, n)
	}
}

// gateProgram is a generated workload of reading groups, the shape of
// S-EnKF's I/O groups: per stage, every reader of a group reads the stage's
// files in turn — a file's retry probes, then one read per row the reader
// serves, none if the file is dropped — and waits at the group's file
// barrier after each file. Readers start at staggered times, pause between
// stages, and some leave their barrier for good at the top of a stage, as a
// dying reader does. The geometry, stragglers and fault windows are
// genReadProgram's.
type gateProgram struct {
	cfg    Config
	plan   faults.Plan
	groups []gateGroup
}

type gateGroup struct {
	stages  [][]int // the files of each stage, the same for every reader
	seeks   int
	bytes   float64
	probes  [8]int  // retry probes per file
	drops   [8]bool // files not read after their probes
	readers []gateReader
}

type gateReader struct {
	delay, gap float64
	rows       []int // rows served per stage
	leave      int   // the stage at whose top it leaves its barrier (len(stages): never)
}

func genGateProgram(seed int64) gateProgram {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	base := genReadProgram(seed)
	g := gateProgram{cfg: base.cfg, plan: faults.Plan{OSTWindows: base.plan.OSTWindows}}
	proc := 0
	for n := 1 + rng.Intn(3); n > 0; n-- {
		gr := gateGroup{seeks: rng.Intn(3), bytes: pick(0, 2, 4, 8)}
		for f := range gr.probes {
			if rng.Intn(4) == 0 {
				gr.probes[f], gr.drops[f] = rng.Intn(3), rng.Intn(2) == 0
			}
		}
		for s := 1 + rng.Intn(3); s > 0; s-- {
			var files []int
			for f := rng.Intn(4); f >= 0; f-- {
				files = append(files, rng.Intn(8))
			}
			gr.stages = append(gr.stages, files)
		}
		leavers := 0
		for r := 1 + rng.Intn(4); r > 0; r-- {
			rd := gateReader{delay: pick(0, 0, 0.5, 1), gap: pick(0, 0.5, 1), leave: len(gr.stages)}
			for range gr.stages {
				rd.rows = append(rd.rows, 1+rng.Intn(2))
			}
			if leavers < r-1 && rng.Intn(3) == 0 { // one party stays to the end
				rd.leave = rng.Intn(len(gr.stages))
				leavers++
			}
			if rng.Intn(4) == 0 {
				g.plan.Stragglers = append(g.plan.Stragglers, faults.Straggler{Proc: fmt.Sprintf("p%d", proc), Factor: pick(1.5, 2, 4)})
			}
			gr.readers = append(gr.readers, rd)
			proc++
		}
		g.groups = append(g.groups, gr)
	}
	return g
}

// testGate is a group's Gate: it logs each read and each pass, and holds a
// chain at the group's barrier. A chain's id is 100·process + rows served.
type testGate struct {
	g   *gateGroup
	bar *sim.Barrier
	log *readLog
}

func (tg *testGate) Reads(id, file int) (probes, n int) {
	if tg.g.drops[file] {
		return tg.g.probes[file], 0
	}
	return tg.g.probes[file], id % 100
}

func (tg *testGate) ReadDone(id int, start, end float64) { tg.log.ReadDone(id, start, end) }

func (tg *testGate) Pass(p *sim.Proc, w sim.Waker, id, file int) bool {
	tg.logPass(p, id, file)
	return tg.bar.Arrive(p, w)
}

func (tg *testGate) logPass(p *sim.Proc, id, file int) {
	fmt.Fprintf(tg.log, "pass %s %d %d %x\n", p.Name, id, file, math.Float64bits(p.Now()))
}

// How a gate program's readers issue their stages.
const (
	asLoops    = iota // Reads of each file's probes and rows, then a Barrier.Wait
	asReadEach        // one gated ReadEach per stage
	asSteps           // one gated StartEach per stage, from a Stepper
)

// gateStepper is a reader of a gate program written as a Stepper, the way
// internal/schedule's I/O ranks read: each stage one StartEach, whose chain
// wakes the reader for its next step.
type gateStepper struct {
	fs   *FS
	gate *testGate
	rd   gateReader
	log  *readLog
	i, s int // the process's number; the stage in progress
	t0   float64
	at   int
}

func (r *gateStepper) Step(p *sim.Proc) bool {
	for {
		switch r.at {
		case 0:
			r.at = 1
			p.After(r.rd.delay, p)
			return false
		case 1:
			gr := r.gate.g
			if r.s == len(gr.stages) {
				return true
			}
			if r.s == r.rd.leave {
				r.gate.bar.Leave()
				return true
			}
			r.t0, r.at = p.Now(), 2
			if !r.fs.StartEach(p, gr.stages[r.s], gr.seeks, gr.bytes, r.gate, 100*r.i+r.rd.rows[r.s]) {
				return false
			}
		case 2:
			fmt.Fprintf(r.log, "stage %d.%d took %x\n", r.i, r.s, math.Float64bits(p.Now()-r.t0))
			r.s, r.at = r.s+1, 1
			p.After(r.rd.gap, p)
			return false
		}
	}
}

// run executes g with each reader's stage issued as one gated ReadEach — from
// a coroutine or a Stepper — or as the loop it replaces. It also returns how
// many barrier waits parked.
func (g gateProgram) run(t *testing.T, issue int) (readOutcome, int) {
	env := sim.NewEnv()
	buf, reg := trace.NewBuffer(), trace.NewRegistry()
	tr := trace.New(env.Now, buf)
	tr.SetDetail(true)
	tr.SetCounters(reg)
	env.SetTracer(tr)
	env.SetSlowdown(g.plan.SlowdownFor)
	fs, err := New(env, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(&g.plan)
	log := &readLog{}
	fs.SetReadObserver(log)
	proc := 0
	for gi := range g.groups {
		gr := &g.groups[gi]
		gate := &testGate{g: gr, bar: sim.NewBarrier(env, fmt.Sprintf("grp%d", gi), len(gr.readers)), log: log}
		for _, rd := range gr.readers {
			i := proc
			proc++
			if issue == asSteps {
				env.Spawn(fmt.Sprintf("p%d", i), &gateStepper{fs: fs, gate: gate, rd: rd, log: log, i: i})
				continue
			}
			env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				p.Sleep(rd.delay)
				for s, files := range gr.stages {
					if s == rd.leave {
						gate.bar.Leave()
						return
					}
					id := 100*i + rd.rows[s]
					t0 := p.Now()
					if issue == asReadEach {
						fs.ReadEach(p, files, gr.seeks, gr.bytes, gate, id)
					} else {
						for _, f := range files {
							probes, n := gate.Reads(id, f)
							for a := 0; a < probes+n; a++ {
								start := p.Now()
								if a < probes {
									fs.Read(p, f, 1, 0)
								} else {
									fs.Read(p, f, gr.seeks, gr.bytes)
								}
								log.ReadDone(id, start, p.Now())
							}
							gate.logPass(p, id, f)
							gate.bar.Wait(p)
						}
					}
					fmt.Fprintf(log, "stage %d.%d took %x\n", i, s, math.Float64bits(p.Now()-t0))
					p.Sleep(rd.gap)
				}
			})
		}
	}
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, buf.Events()); err != nil {
		t.Fatal(err)
	}
	return readOutcome{end, fs.Stats(), log.String(), reg.Snapshot(), chrome.String()},
		strings.Count(chrome.String(), `"name":"barrier-wait"`)
}

// TestGatedReadEachEqualsReadAndWaitLoopsUnderOutagesAndStragglers: a ReadEach
// whose hook is a Gate is the loop of Reads and Barrier.Waits it replaces,
// bit for bit — final time, Stats, the observer, hook and gate sequence, the
// registry and the detail trace — on generated reading groups with retry
// probes, dropped files, readers that leave their barrier, stragglers and
// outage and degraded windows. A chain that resumed through a new event
// after its gate let it pass, rather than in place of the barrier's
// wake-up, would reorder equal-time wake-ups. Readers written as steppers,
// each stage a StartEach, leave exactly what ReadEach's coroutines leave.
func TestGatedReadEachEqualsReadAndWaitLoopsUnderOutagesAndStragglers(t *testing.T) {
	var stalls, degraded, parked, probes, leaves int
	for seed := int64(1); seed <= 400; seed++ {
		g := genGateProgram(seed)
		loop, loopParked := g.run(t, asLoops)
		each, eachParked := g.run(t, asReadEach)
		if steps, stepsParked := g.run(t, asSteps); !reflect.DeepEqual(steps, each) || stepsParked != eachParked {
			t.Fatalf("seed %d: stepped readers' StartEach differs from coroutines' ReadEach", seed)
		}
		if loop.end != each.end || loop.stats != each.stats {
			t.Fatalf("seed %d: end %g, %+v as loops; %g, %+v as gated ReadEach", seed, loop.end, loop.stats, each.end, each.stats)
		}
		if loop.calls != each.calls {
			t.Fatalf("seed %d: observer calls differ\nloops:\n%s\ngated ReadEach:\n%s", seed, loop.calls, each.calls)
		}
		if !reflect.DeepEqual(loop.registry, each.registry) {
			t.Fatalf("seed %d: registry differs\nloops:          %+v\ngated ReadEach: %+v", seed, loop.registry, each.registry)
		}
		if loop.chrome != each.chrome || loopParked != eachParked {
			t.Fatalf("seed %d: detail traces differ", seed)
		}
		stalls += loop.stats.OutageStalls
		degraded += loop.stats.DegradedReads
		parked += loopParked
		for _, gr := range g.groups {
			for _, rd := range gr.readers {
				if rd.leave < len(gr.stages) {
					leaves++
				}
			}
			for _, n := range gr.probes {
				probes += n
			}
		}
	}
	t.Logf("400 programs: %d outage stalls, %d degraded reads, %d parked barrier waits, %d probes per faulted file, %d leavers",
		stalls, degraded, parked, probes, leaves)
	// The generator must reach what it is for.
	if stalls < 100 || degraded < 100 || parked < 1000 || probes < 100 || leaves < 50 {
		t.Errorf("400 programs: %d outage stalls, %d degraded reads, %d parked barrier waits, %d probes per faulted file, %d leavers",
			stalls, degraded, parked, probes, leaves)
	}
}
