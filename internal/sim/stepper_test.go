package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"senkf/internal/trace"
)

// gworld is what the stepped processes of a generated program share: its
// machine and the checks' bookkeeping, as gprog.run keeps them for its
// coroutine bodies.
type gworld struct {
	t     *testing.T
	g     *gprog
	env   *Env
	log   bytes.Buffer
	res   []*Resource
	held  []int
	boxes []*Mailbox
	sent  []int
	got   []map[int]bool

	bar, half *Barrier
	void      *Mailbox
	jam       *Resource

	ticket, lastTicket int
	lastAt             float64
}

// gstepper is gprog.run's process body written as a Stepper: the same calls
// in the same order, each wait a return and each resumption a step. at is
// where the op in progress resumes; 0 starts it.
type gstepper struct {
	w        *gworld
	gp       *gproc
	i, at    int
	mine     int // the ticket of the sleep in progress
	lastRecv []int
}

func (s *gstepper) note(p *Proc, format string, args ...any) {
	w := s.w
	fmt.Fprintf(&w.log, "%016x %s ", math.Float64bits(p.Now()), p.Name)
	fmt.Fprintf(&w.log, format, args...)
	w.log.WriteByte('\n')
	if p.Now() != w.env.Now() {
		w.t.Errorf("%s: Proc.Now %g != Env.Now %g", p.Name, p.Now(), w.env.Now())
	}
}

func (s *gstepper) sleep(p *Proc, d float64) {
	s.w.ticket++
	s.mine = s.w.ticket
	p.After(d, p)
}

func (s *gstepper) slept(p *Proc) {
	w := s.w
	if p.Now() < w.lastAt || (p.Now() == w.lastAt && s.mine < w.lastTicket) {
		w.t.Errorf("%s: sleep %d woke at %g after sleep %d at %g", p.Name, s.mine, p.Now(), w.lastTicket, w.lastAt)
	}
	w.lastAt, w.lastTicket = p.Now(), s.mine
}

func (s *gstepper) acquired(p *Proc, i int) {
	w := s.w
	w.held[i]++
	if w.held[i] > w.g.caps[i] || w.res[i].inUse > w.g.caps[i] {
		w.t.Errorf("%s: res%d holds %d (InUse %d) over capacity %d", p.Name, i, w.held[i], w.res[i].inUse, w.g.caps[i])
	}
}

func (s *gstepper) release(i int) {
	s.w.held[i]--
	s.w.res[i].Release()
}

func (s *gstepper) received(p *Proc, a int, v any) {
	w, n := s.w, v.(int)
	if w.got[a][n] || n <= s.lastRecv[a] {
		w.t.Errorf("%s: box%d delivered #%d twice or out of order (last #%d)", p.Name, a, n, s.lastRecv[a])
	}
	w.got[a][n], s.lastRecv[a] = true, n
	s.note(p, "received %d #%d", a, n)
}

func (s *gstepper) Step(p *Proc) bool {
	w := s.w
	if s.lastRecv == nil {
		s.lastRecv = make([]int, w.g.nmb)
		s.note(p, "start")
	}
	for ; s.i < len(s.gp.ops); s.i, s.at = s.i+1, 0 {
		o := s.gp.ops[s.i]
		switch o.kind {
		case gSleep:
			if s.at == 0 {
				s.sleep(p, o.d)
				s.at = 1
				return false
			}
			s.slept(p)
			s.note(p, "slept %g", o.d)
		case gUse:
			if s.at == 0 {
				if s.at = 2; !w.res[o.a].Take(p, p) {
					s.at = 1
					return false
				}
			}
			if s.at == 1 {
				p.Unblock()
				s.at = 2
			}
			if s.at == 2 {
				s.acquired(p, o.a)
				s.note(p, "acquired %d", o.a)
				s.sleep(p, o.d)
				s.at = 3
				return false
			}
			s.slept(p)
			s.release(o.a)
			s.note(p, "released %d", o.a)
		case gUse2:
			if s.at == 0 {
				if s.at = 2; !w.res[o.a].Take(p, p) {
					s.at = 1
					return false
				}
			}
			if s.at == 1 {
				p.Unblock()
				s.at = 2
			}
			if s.at == 2 {
				s.acquired(p, o.a)
				s.note(p, "acquired %d", o.a)
				if s.at = 4; !w.res[o.b].Take(p, p) {
					s.at = 3
					return false
				}
			}
			if s.at == 3 {
				p.Unblock()
				s.at = 4
			}
			if s.at == 4 {
				s.acquired(p, o.b)
				s.note(p, "acquired %d", o.b)
				s.sleep(p, o.d)
				s.at = 5
				return false
			}
			s.slept(p)
			s.release(o.b)
			s.release(o.a)
			s.note(p, "released %d %d", o.b, o.a)
		case gSend:
			w.sent[o.a]++
			w.boxes[o.a].Send(w.sent[o.a])
			s.note(p, "sent %d #%d", o.a, w.sent[o.a])
		case gRecv:
			if s.at == 0 {
				v, ok := w.boxes[o.a].Take(p, p)
				if !ok {
					s.at = 1
					return false
				}
				s.received(p, o.a, v)
				continue
			}
			p.Unblock()
			s.received(p, o.a, p.Received())
		case gSpawn:
			c := &w.g.children[o.a]
			w.env.Spawn(c.name, &gstepper{w: w, gp: c})
			s.note(p, "spawned %s", c.name)
		case gBarrier:
			if s.at == 0 && !w.bar.Arrive(p, p) {
				s.at = 1
				return false
			}
			if s.at == 1 {
				p.Unblock()
			}
			s.note(p, "passed barrier")
		case gLeave:
			w.bar.Leave()
			s.note(p, "left barrier of %d", w.bar.n)
		case gVoid, gJam, gHalf:
			if s.at == 1 {
				p.Unblock()
				continue
			}
			var queued bool
			switch o.kind {
			case gVoid:
				_, ok := w.void.Take(p, p)
				queued = !ok
			case gJam:
				queued = !w.jam.Take(p, p)
			default:
				queued = !w.half.Arrive(p, p)
			}
			if queued {
				s.at = 1
				return false
			}
		}
	}
	s.note(p, "end")
	return true
}

// runStepped executes the program with stepped processes on a fresh Env and
// returns the digest gprog.run computes for its coroutines.
func (g *gprog) runStepped(t *testing.T) string {
	w := &gworld{t: t, g: g, env: NewEnv(), lastAt: math.Inf(-1)}
	env := w.env
	var buf *trace.Buffer
	var reg *trace.Registry
	if g.traced {
		buf, reg = trace.NewBuffer(), trace.NewRegistry()
		tr := trace.New(env.Now, buf)
		tr.SetDetail(true)
		tr.SetCounters(reg)
		env.SetTracer(tr)
	}
	if g.slow != nil {
		env.SetSlowdown(func(name string) float64 { return g.slow[name] })
	}
	w.res, w.held = make([]*Resource, len(g.caps)), make([]int, len(g.caps))
	for i, c := range g.caps {
		w.res[i] = NewResource(env, fmt.Sprintf("res%d", i), c)
	}
	w.boxes, w.sent, w.got = make([]*Mailbox, g.nmb), make([]int, g.nmb), make([]map[int]bool, g.nmb)
	for i := range w.boxes {
		w.boxes[i] = NewMailbox(env, fmt.Sprintf("box%d", i))
		w.got[i] = map[int]bool{}
	}
	w.bar = NewBarrier(env, "bar", g.parties)
	w.void, w.jam, w.half = NewMailbox(env, "void"), NewResource(env, "jam", 1), NewBarrier(env, "half", 2)
	for i := range g.roots {
		env.Spawn(g.roots[i].name, &gstepper{w: w, gp: &g.roots[i]})
	}
	end, err := env.Run()

	h := sha256.New()
	h.Write(w.log.Bytes())
	fmt.Fprintf(h, "end %016x\n", math.Float64bits(end))
	var d *DeadlockError
	switch {
	case errors.As(err, &d):
		fmt.Fprintf(h, "%v\n%v\n%v\n", err, d.Blocked, d.Waiting)
	case err != nil:
		t.Errorf("Run: %v", err)
	}
	if g.traced {
		for _, ev := range buf.Events() {
			fmt.Fprintf(h, "%s %s %s %c %016x %016x %v\n", ev.Track, ev.Cat, ev.Name, ev.Ph,
				math.Float64bits(ev.Ts), math.Float64bits(ev.Dur), ev.Args)
		}
		writeRegistryRows(h, reg.Snapshot())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSteppersReplayTheGoldenPrograms: a stepper is a coroutine. Each of the
// 50 generated programs — resource contention, mailbox hand-offs, barrier
// rounds with a Leave, processes spawned by running ones, straggler
// dilation, and on every eighth seed four processes stuck on a mailbox, a
// resource and a barrier — written as steppers reproduces the digest its
// coroutines are pinned to: the same log at every resumption, trace,
// registry, end time and DeadlockError.
func TestSteppersReplayTheGoldenPrograms(t *testing.T) {
	for seed := 1; seed <= len(simGolden); seed++ {
		if got := genProgram(int64(seed)).runStepped(t); got != simGolden[seed-1] {
			t.Errorf("seed %d: stepped digest\n got %s\nwant %s", seed, got, simGolden[seed-1])
		}
	}
}

// seq is a Stepper of straight-line pieces: a step runs them in order until
// one reports that p must wait, and the next step goes on with the piece
// after it.
type seq struct {
	pieces []func(p *Proc) bool
	i      int
}

func (s *seq) Step(p *Proc) bool {
	for s.i < len(s.pieces) {
		piece := s.pieces[s.i]
		if s.i++; piece(p) {
			return false
		}
	}
	return true
}

// Pieces of a seq, each the stepped form of one coroutine call: after is
// Sleep, take Acquire, recv Recv, arrive Wait, release Release; a queueing
// piece is followed by resumed, which ends the wait if it began one.
func after(d float64) func(*Proc) bool { return func(p *Proc) bool { p.After(d, p); return true } }
func take(r *Resource) func(*Proc) bool {
	return func(p *Proc) bool { return !r.Take(p, p) }
}
func recv(m *Mailbox) func(*Proc) bool {
	return func(p *Proc) bool { _, ok := m.Take(p, p); return !ok }
}
func arrive(b *Barrier) func(*Proc) bool {
	return func(p *Proc) bool { return !b.Arrive(p, p) }
}
func release(r *Resource) func(*Proc) bool {
	return func(*Proc) bool { r.Release(); return false }
}
func resumed(p *Proc) bool {
	if p.waitKind != "" {
		p.Unblock()
	}
	return false
}

// chained and barChained hand p to a chain, as runChain and runBarChain do;
// the chain's end wakes p for its last step.
func chained(r *Resource, hold float64, rounds int) func(*Proc) bool {
	return func(p *Proc) bool { return !(&chain{p: p, r: r, hold: hold, rounds: rounds}).start() }
}
func barChained(bar *Barrier, hold float64, rounds int) func(*Proc) bool {
	return func(p *Proc) bool { p.After(hold, &barChain{p: p, bar: bar, hold: hold, rounds: rounds}); return true }
}

// chainProgram runs processes that hand themselves to After chains at a
// shared disk and a barrier, beside straight ones contending for the disk,
// as coroutines or as steppers, under a detail tracer and a straggler, and
// returns the trace and Run's outcome.
func chainProgram(stepped bool) ([]trace.Event, float64, error) {
	e := NewEnv()
	buf := trace.NewBuffer()
	tr := trace.New(e.Now, buf)
	tr.SetDetail(true)
	tr.SetCounters(trace.NewRegistry())
	e.SetTracer(tr)
	e.SetSlowdown(func(name string) float64 {
		if name == "c1" {
			return 2
		}
		return 1
	})
	disk, files := NewResource(e, "disk", 2), NewBarrier(e, "files", 3)
	for i := 0; i < 4; i++ {
		name, hold, rounds := fmt.Sprintf("c%d", i), 0.25*float64(i+1), 2+i
		if stepped {
			e.Spawn(name, &seq{pieces: []func(*Proc) bool{chained(disk, hold, rounds)}})
		} else {
			e.Go(name, runChain(disk, hold, rounds))
		}
	}
	for i := 0; i < 3; i++ {
		name, hold := fmt.Sprintf("g%d", i), 0.5*float64(i)
		if stepped {
			e.Spawn(name, &seq{pieces: []func(*Proc) bool{barChained(files, hold, 3)}})
		} else {
			e.Go(name, runBarChain(files, hold, 3))
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		if stepped {
			e.Spawn(name, &seq{pieces: []func(*Proc) bool{after(0.5), take(disk), resumed, after(1), release(disk)}})
		} else {
			e.Go(name, func(p *Proc) {
				p.Sleep(0.5)
				disk.Acquire(p)
				p.Sleep(1)
				disk.Release()
			})
		}
	}
	end, err := e.Run()
	return buf.Events(), end, err
}

// TestStepperChainsMatchCoroutineChains: After chains working for stepped
// processes leave the trace and end time they leave for coroutines.
func TestStepperChainsMatchCoroutineChains(t *testing.T) {
	goEvents, goEnd, goErr := chainProgram(false)
	stEvents, stEnd, stErr := chainProgram(true)
	if goErr != nil || stErr != nil {
		t.Fatalf("Run: coroutines %v, steppers %v", goErr, stErr)
	}
	if stEnd != goEnd {
		t.Errorf("steppers end at %g, coroutines at %g", stEnd, goEnd)
	}
	if len(goEvents) < 50 || !reflect.DeepEqual(stEvents, goEvents) {
		t.Errorf("the steppers' %d trace events differ from the coroutines' %d", len(stEvents), len(goEvents))
	}
}

// blockedProgram leaves a process blocked on each kind of object — a
// resource, a mailbox, a barrier — directly and through a chain, written as
// coroutines or as steppers.
func blockedProgram(stepped bool) error {
	e := NewEnv()
	jam, void, half, files := NewResource(e, "jam", 1), NewMailbox(e, "void"), NewBarrier(e, "half", 2), NewBarrier(e, "files", 3)
	procs := []struct {
		name   string
		body   func(p *Proc)
		pieces []func(*Proc) bool
	}{
		{"hog", func(p *Proc) { jam.Acquire(p) }, []func(*Proc) bool{take(jam), resumed}},
		{"jammed", func(p *Proc) { p.Sleep(1); jam.Acquire(p) }, []func(*Proc) bool{after(1), take(jam), resumed}},
		{"stuck", func(p *Proc) { void.Recv(p) }, []func(*Proc) bool{recv(void), resumed}},
		{"lonely", func(p *Proc) { half.Wait(p) }, []func(*Proc) bool{arrive(half), resumed}},
		{"chained", runChain(jam, 1, 2), []func(*Proc) bool{chained(jam, 1, 2)}},
		{"gated", runBarChain(files, 1, 2), []func(*Proc) bool{barChained(files, 1, 2)}},
	}
	for _, pr := range procs {
		if stepped {
			e.Spawn(pr.name, &seq{pieces: pr.pieces})
		} else {
			e.Go(pr.name, pr.body)
		}
	}
	_, err := e.Run()
	return err
}

// TestBlockedSteppersAreReportedLikeCoroutines: a deadlock of steppers names
// the same processes and objects as the same program's coroutines, and a
// failed Run of steppers leaves no goroutine behind (it never had one).
func TestBlockedSteppersAreReportedLikeCoroutines(t *testing.T) {
	var want *DeadlockError
	if err := blockedProgram(false); !errors.As(err, &want) {
		t.Fatalf("coroutines: want a DeadlockError, got %v", err)
	}
	base := runtime.NumGoroutine()
	var got *DeadlockError
	if err := blockedProgram(true); !errors.As(err, &got) {
		t.Fatalf("steppers: want a DeadlockError, got %v", err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines before a failed stepped Run, %d after", base, n)
	}
	if !reflect.DeepEqual(got.Blocked, want.Blocked) {
		t.Errorf("steppers blocked on %v, coroutines on %v", got.Blocked, want.Blocked)
	}
	kinds := map[string]bool{}
	for _, b := range got.Blocked {
		kinds[strings.SplitN(b.WaitingOn, ":", 2)[0]] = true
	}
	if len(got.Blocked) != 5 || len(kinds) != 3 {
		t.Errorf("want five processes blocked on all three kinds of object, got %v", got.Blocked)
	}
}

// TestStepsRunUnderTheSpawnWrapper: with a wrapper installed, every step of
// a stepped process — woken by its own wake-up, by a queue it waited in or
// by a chain that worked for it — runs inside the wrapper, under its name.
func TestStepsRunUnderTheSpawnWrapper(t *testing.T) {
	e := NewEnv()
	var current string
	wraps := 0
	e.SetSpawnWrapper(func(name string, fn func()) func() {
		return func() {
			prev := current
			current, wraps = name, wraps+1
			fn()
			current = prev
		}
	})
	steps := 0
	labelled := func(pieces ...func(*Proc) bool) *seq {
		var out []func(*Proc) bool
		for _, piece := range pieces {
			out = append(out, func(p *Proc) bool {
				if current != p.Name {
					t.Errorf("a step of %s ran under %q", p.Name, current)
				}
				steps++
				return piece(p)
			})
		}
		return &seq{pieces: out}
	}
	disk, box, bar := NewResource(e, "disk", 1), NewMailbox(e, "box"), NewBarrier(e, "bar", 2)
	send := func(*Proc) bool { box.Send(1); return false }
	e.Spawn("a", labelled(after(1), take(disk), resumed, release(disk), chained(disk, 1, 2), resumed, recv(box), resumed, arrive(bar), resumed))
	e.Spawn("b", labelled(take(disk), resumed, after(3), release(disk), send, arrive(bar), resumed))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 17 || wraps == 0 {
		t.Errorf("%d pieces ran, want 17, in %d wrapped steps", steps, wraps)
	}
}

// contender is the contend probe's process as a Stepper: rounds times
// through acquire, sleep, release, then a message round a ring and a
// barrier.
type contender struct {
	r         *Resource
	bar       *Barrier
	boxes     []*Mailbox
	i, rounds int
	at        int
}

func (c *contender) Step(p *Proc) bool {
	for {
		switch c.at {
		case 0:
			if c.rounds == 0 {
				return true
			}
			if c.at = 2; !c.r.Take(p, p) {
				c.at = 1
				return false
			}
		case 1, 4, 6: // woken holding the disk, with a message, past the barrier
			p.Unblock()
			c.at++
		case 2:
			c.at = 3
			p.After(0.001, p)
			return false
		case 3:
			c.r.Release()
			c.boxes[(c.i+1)%len(c.boxes)].Send(p)
			if _, ok := c.boxes[c.i].Take(p, p); !ok {
				c.at = 4
				return false
			}
			c.at = 5
		case 5:
			if c.at = 7; !c.bar.Arrive(p, p) {
				c.at = 6
				return false
			}
		case 7:
			c.rounds--
			c.at = 0
		}
	}
}

// TestStepsDoNotAllocate: with no wrapper, a step allocates nothing — ten
// times the rounds of the contend shape, stepped, is ten times the steps
// and not one object more.
func TestStepsDoNotAllocate(t *testing.T) {
	const procs = 200
	run := func(rounds int) func() {
		return func() {
			e := NewEnv()
			r, bar := NewResource(e, "disk", 4), NewBarrier(e, "round", procs)
			boxes := make([]*Mailbox, procs)
			for i := range boxes {
				boxes[i] = NewMailbox(e, "box")
			}
			cs := make([]contender, procs)
			for i := range cs {
				cs[i] = contender{r: r, bar: bar, boxes: boxes, i: i, rounds: rounds}
				e.Spawn("p", &cs[i])
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
	}
	short, long := testing.AllocsPerRun(3, run(10)), testing.AllocsPerRun(3, run(100))
	if long != short {
		t.Errorf("%.0f objects at 10 rounds, %.0f at 100: %.4f per extra step", short, long, (long-short)/(procs*90*5))
	}
}
