package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"senkf/internal/trace"
)

func run(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("expected error for size 0")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	run(t, 5, func(c *Comm) error {
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if len(seen) != 5 {
		t.Errorf("saw %d distinct ranks, want 5", len(seen))
	}
}

func TestSendRecvPingPong(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []int{42}, []float64{1, 2, 3}); err != nil {
				return err
			}
			m, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if m.Data[0] != 6 {
				return fmt.Errorf("pong payload %v", m.Data)
			}
			return nil
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if m.Src != 0 || m.Tag != 7 || m.Meta[0] != 42 {
			return fmt.Errorf("bad message %+v", m)
		}
		var s float64
		for _, v := range m.Data {
			s += v
		}
		return c.Send(0, 8, nil, []float64{s})
	})
}

func TestSendCopiesBuffers(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2}
			meta := []int{5}
			if err := c.Send(1, 1, meta, buf); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send; receiver must see 1
			meta[0] = 99
			return nil
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if m.Data[0] != 1 || m.Meta[0] != 5 {
			return fmt.Errorf("send aliased buffers: %+v", m)
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				m, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				got[m.Src] = true
			}
			if !got[1] || !got[2] {
				return fmt.Errorf("wildcard recv missed a source: %v", got)
			}
			return nil
		default:
			return c.Send(0, 10+c.Rank(), nil, []float64{float64(c.Rank())})
		}
	})
}

func TestRecvFIFOPerSenderAndTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				if err := c.Send(1, 3, nil, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			m, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if m.Data[0] != float64(i) {
				return fmt.Errorf("out of order: got %g want %d", m.Data[0], i)
			}
		}
		return nil
	})

	// The inbox itself, against a plain slice that is searched from the front
	// and shifted down after every match: interleaved senders and tags, the
	// wildcards, matches at the head and behind it, and a depth that rises and
	// falls so the queue compacts many times over.
	t.Run("inbox", func(t *testing.T) {
		ib := newInbox()
		var model []envelope
		seq := 0.0
		put := func(src, tag int) {
			seq++
			e := envelope{Message: Message{Src: src, Tag: tag, Data: []float64{seq}}}
			ib.put(e)
			model = append(model, e)
		}
		take := func(src, tag int) {
			t.Helper()
			want := -1
			for i, e := range model {
				if (src == AnySource || e.Src == src) && (tag == AnyTag || e.Tag == tag) {
					want = i
					break
				}
			}
			if want < 0 {
				return // would block
			}
			got, depth := takeQueued(t, ib, src, tag)
			if got.Data[0] != model[want].Data[0] {
				t.Fatalf("take(%d, %d) = message %g, want %g (at %d of %d queued)",
					src, tag, got.Data[0], model[want].Data[0], want, len(model))
			}
			model = append(model[:want], model[want+1:]...)
			if depth != len(model) {
				t.Fatalf("take(%d, %d) reported depth %d, want %d", src, tag, depth, len(model))
			}
		}

		// At the head, then behind it, then the wildcards.
		put(0, 5)
		put(1, 5)
		put(0, 6)
		put(2, 5)
		take(0, 5)              // the head
		take(0, 6)              // behind the head
		take(AnySource, AnyTag) // the head again
		take(AnySource, 5)
		put(2, 7)
		put(3, 7)
		put(2, 8)
		take(2, AnyTag) // the head
		take(AnySource, 8)
		take(3, 7)

		// Many puts and takes at a bounded depth.
		rng := rand.New(rand.NewSource(7))
		maxCap := 0
		for step := 0; step < 20000; step++ {
			if len(model) < 3 || (len(model) < 40 && rng.Intn(2) == 0) {
				put(rng.Intn(3), rng.Intn(3))
				continue
			}
			src, tag := rng.Intn(3), rng.Intn(3)
			switch rng.Intn(4) {
			case 0:
				src = AnySource
			case 1:
				tag = AnyTag
			case 2:
				src, tag = model[0].Src, model[0].Tag
			}
			take(src, tag)
			maxCap = max(maxCap, cap(ib.msgs))
		}
		for len(model) > 0 {
			take(AnySource, AnyTag)
		}
		// Forty envelopes deep at most: a queue that reused its array never
		// needed more than a few times that.
		if maxCap > 256 {
			t.Errorf("the queue grew to %d slots at a depth of at most 40", maxCap)
		}
	})
}

// takeQueued takes the first envelope matching (src, tag) from an inbox
// that holds one, failing the test instead of hanging if a broken inbox
// blocks. It returns the envelope and the depth the take reported.
func takeQueued(t *testing.T, ib *inbox, src, tag int) (envelope, int) {
	t.Helper()
	type taken struct {
		e     envelope
		depth int
		err   error
	}
	done := make(chan taken, 1)
	go func() {
		e, depth, err := ib.take(src, tag)
		done <- taken{e, depth, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("take(%d, %d) with a match queued: %v", src, tag, r.err)
		}
		return r.e, r.depth
	case <-time.After(5 * time.Second):
		t.Fatalf("take(%d, %d) blocked with a match queued", src, tag)
		return envelope{}, 0
	}
}

// TestReceiveAllocatesNothing: a receive costs the receiver no object — not
// the inbox's put and matching take, and not a Comm's send to itself and
// its Recv — once AllocsPerRun's warm-up call has grown the inbox's array.
func TestReceiveAllocatesNothing(t *testing.T) {
	ib := newInbox()
	e := envelope{Message: Message{Src: 1, Tag: 3, Meta: []int{1}, Data: []float64{2}}}
	if n := testing.AllocsPerRun(100, func() {
		ib.put(e)
		if _, _, err := ib.take(1, 3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an inbox put and take allocate %v objects, want 0", n)
	}

	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	c := &Comm{world: w}
	meta, data := []int{1}, []float64{2}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.SendOwned(0, 3, meta, data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(0, 3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a SendOwned and its Recv allocate %v objects, want 0", n)
	}
}

// TestTakenPayloadIsCollectable: once an envelope is taken, the inbox keeps
// nothing of it reachable — whether it was the oldest queued or behind
// others, whether others were queued after it, and after the queue slid down
// its array.
func TestTakenPayloadIsCollectable(t *testing.T) {
	type probe struct{ vals [64]float64 }
	filler := envelope{Message: Message{Tag: 1, Data: []float64{1}}}
	fill := func(ib *inbox, n int) {
		for ; n > 0; n-- {
			ib.put(filler)
		}
	}
	takeFiller := func(ib *inbox) { takeQueued(t, ib, AnySource, 1) }
	for _, c := range []struct {
		name          string
		before, after func(ib *inbox)
	}{
		{"oldest, alone", func(*inbox) {}, func(*inbox) {}},
		{"oldest, others after", func(*inbox) {}, func(ib *inbox) { fill(ib, 1) }},
		{"behind others, last", func(ib *inbox) { fill(ib, 2) }, func(*inbox) {}},
		{"behind others, others after", func(ib *inbox) { fill(ib, 2) }, func(ib *inbox) { fill(ib, 1) }},
		{"slid down", func(ib *inbox) {
			// The probe goes last into a full array ...
			for len(ib.msgs)+1 != cap(ib.msgs) {
				ib.put(filler)
			}
		}, func(ib *inbox) {
			// ... at least half of which is then taken, so the next put
			// slides the queue down.
			for full, k := len(ib.msgs), 0; 2*k < full; k++ {
				takeFiller(ib)
			}
			fill(ib, 1)
		}},
	} {
		ib := newInbox()
		collected := make(chan struct{})
		func() {
			c.before(ib)
			p := new(probe)
			runtime.SetFinalizer(p, func(*probe) { close(collected) })
			ib.put(envelope{Message: Message{Tag: 2, Data: p.vals[:]}})
			c.after(ib)
			takeQueued(t, ib, AnySource, 2)
		}()
		deadline := time.After(5 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-collected:
				break wait
			case <-deadline:
				t.Fatalf("%s: a taken payload stayed reachable", c.name)
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(ib)
	}
}

func TestTagSelectionSkipsNonMatching(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, nil, []float64{1}); err != nil {
				return err
			}
			return c.Send(1, 2, nil, []float64{2})
		}
		// Receive tag 2 first even though tag 1 arrived first.
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if m2.Data[0] != 2 || m1.Data[0] != 1 {
			return fmt.Errorf("tag selection wrong: %v %v", m2.Data, m1.Data)
		}
		return nil
	})
}

func TestSendRecvValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := c.Send(5, 0, nil, nil); err == nil {
			return fmt.Errorf("expected out-of-range send error")
		}
		if err := c.Send(0, -1, nil, nil); err == nil {
			return fmt.Errorf("expected negative tag error")
		}
		if _, err := c.Recv(9, 0); err == nil {
			return fmt.Errorf("expected out-of-range recv error")
		}
		if _, err := c.Recv(0, -5); err == nil {
			return fmt.Errorf("expected negative tag recv error")
		}
		return nil
	})
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 4; root++ {
		root := root
		run(t, 4, func(c *Comm) error {
			var data []float64
			if c.Rank() == root {
				data = []float64{3.5, float64(root)}
			}
			got, err := c.Bcast(root, data)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != 3.5 || got[1] != float64(root) {
				return fmt.Errorf("rank %d: bcast got %v", c.Rank(), got)
			}
			return nil
		})
	}
}

func TestGather(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		all, err := c.Gather(2, []float64{float64(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if all != nil {
				return fmt.Errorf("non-root got %v", all)
			}
			return nil
		}
		for r := 0; r < 5; r++ {
			if all[r][0] != float64(r*10) {
				return fmt.Errorf("gather[%d] = %v", r, all[r])
			}
		}
		return nil
	})
}

func TestBarrierOrdering(t *testing.T) {
	// All ranks increment before the barrier; after the barrier every rank
	// must observe the full count.
	var mu sync.Mutex
	count := 0
	run(t, 8, func(c *Comm) error {
		mu.Lock()
		count++
		mu.Unlock()
		if err := c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if count != 8 {
			return fmt.Errorf("rank %d saw count %d after barrier", c.Rank(), count)
		}
		return nil
	})
}

func TestAllreduceSum(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		got, err := c.AllreduceSum([]float64{1, float64(c.Rank())})
		if err != nil {
			return err
		}
		if got[0] != 6 || got[1] != 15 {
			return fmt.Errorf("allreduce got %v", got)
		}
		return nil
	})
}

func TestRunCollectsErrors(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error = %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error = %v", err)
	}
}

func TestManyRanksAllToOne(t *testing.T) {
	const n = 32
	run(t, n, func(c *Comm) error {
		if c.Rank() == 0 {
			var sum float64
			for i := 1; i < n; i++ {
				m, err := c.Recv(AnySource, 9)
				if err != nil {
					return err
				}
				sum += m.Data[0]
			}
			if sum != float64(n*(n-1)/2) {
				return fmt.Errorf("sum %g", sum)
			}
			return nil
		}
		return c.Send(0, 9, nil, []float64{float64(c.Rank())})
	})
}

func TestBcastRootValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if _, err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("expected root range error")
		}
		if _, err := c.Gather(-1, nil); err == nil {
			return fmt.Errorf("expected root range error")
		}
		return nil
	})
}

func TestAllreduceLengthMismatch(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		data := []float64{1}
		if c.Rank() == 1 {
			data = []float64{1, 2}
		}
		_, err := c.AllreduceSum(data)
		if c.Rank() == 0 {
			if err == nil {
				return fmt.Errorf("expected length mismatch error")
			}
			// Unblock rank 1's pending Bcast by sending what it expects.
			c.send(1, collBcast, nil, nil)
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksPendingReceives(t *testing.T) {
	// A failing rank must not deadlock ranks blocked in Recv.
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("simulated failure")
		}
		_, err := c.Recv(0, 1) // never sent
		if err == nil {
			return fmt.Errorf("expected abort error")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "simulated failure") {
		t.Errorf("error = %v", err)
	}
}

// countingWorld returns an n-rank world that counts into a fresh registry
// and records every delivery.
func countingWorld(t *testing.T, n int) (*World, *trace.Registry, *recordingObserver) {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	tr := trace.New(nil)
	tr.SetCounters(reg)
	w.SetTracer(tr)
	obs := &recordingObserver{}
	w.SetMsgObserver(obs)
	return w, reg, obs
}

// TestCommStatsAccounting: a send lands once in the registry, as one
// mpi.msgs and its 8·(meta+data) bytes in mpi.bytes, and its receiver is
// handed the same sender, receiver and size.
func TestCommStatsAccounting(t *testing.T) {
	w, reg, obs := countingWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// 2 meta ints + 3 data floats = 40 bytes.
			return c.Send(1, 7, []int{1, 2}, []float64{1, 2, 3})
		}
		_, err := c.Recv(0, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs, bytes := reg.CounterValue("mpi.msgs"), reg.CounterValue("mpi.bytes"); msgs != 1 || bytes != 40 {
		t.Errorf("mpi.msgs = %v, mpi.bytes = %v, want 1 and 40", msgs, bytes)
	}
	if want := []observed{{0, 1, 7, 40, 0}}; !reflect.DeepEqual(obs.seen, want) {
		t.Errorf("delivered %+v, want %+v", obs.seen, want)
	}
}

// TestCommStatsCoverCollectives: collectives send through the same path, so
// in a quiescent world the counters equal what the receivers were handed.
func TestCommStatsCoverCollectives(t *testing.T) {
	w, reg, obs := countingWorld(t, 4)
	err := w.Run(func(c *Comm) error {
		if _, err := c.Bcast(0, []float64{1, 2}); err != nil {
			return err
		}
		if _, err := c.AllreduceSum([]float64{float64(c.Rank())}); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, o := range obs.seen {
		bytes += o.bytes
	}
	msgs := reg.CounterValue("mpi.msgs")
	if msgs == 0 {
		t.Fatal("collectives counted no messages")
	}
	if msgs != float64(len(obs.seen)) || reg.CounterValue("mpi.bytes") != float64(bytes) {
		t.Errorf("counted %v msgs / %v bytes, delivered %d / %d",
			msgs, reg.CounterValue("mpi.bytes"), len(obs.seen), bytes)
	}
}

func TestMpiTracingSpans(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer()
	tr := trace.New(nil, buf)
	tr.SetCounters(trace.NewRegistry())
	w.SetTracer(tr)
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, nil, []float64{1})
		}
		_, err := c.Recv(0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var recvSpan bool
	for _, ev := range buf.Events() {
		if ev.Cat == "mpi" && ev.Name == "recv" && ev.Track == "rank1" && ev.Ph == trace.PhaseSpan {
			if v, ok := ev.ArgValue("bytes"); !ok || v != 8 {
				t.Errorf("recv span bytes = %v, want 8", v)
			}
			recvSpan = true
		}
	}
	if !recvSpan {
		t.Error("no recv span on rank1 track")
	}
	reg := tr.Counters()
	if got := reg.CounterValue("mpi.msgs"); got != 1 {
		t.Errorf("mpi.msgs = %v, want 1", got)
	}
	if got := reg.CounterValue("mpi.bytes"); got != 8 {
		t.Errorf("mpi.bytes = %v, want 8", got)
	}
}
