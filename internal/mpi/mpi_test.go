package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

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
		if c.Size() != 5 {
			return fmt.Errorf("size %d", c.Size())
		}
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

func TestScatter(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		var parts [][]float64
		if c.Rank() == 1 {
			parts = [][]float64{{0}, {1}, {2}, {3}}
		}
		part, err := c.Scatter(1, parts)
		if err != nil {
			return err
		}
		if len(part) != 1 || part[0] != float64(c.Rank()) {
			return fmt.Errorf("rank %d got %v", c.Rank(), part)
		}
		return nil
	})
}

func TestScatterValidatesParts(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Scatter(0, [][]float64{{1}}) // wrong count
			if err == nil {
				return fmt.Errorf("expected parts-count error")
			}
			// Unblock rank 1 with a correct scatter.
			_, err = c.Scatter(0, [][]float64{{1}, {2}})
			return err
		}
		_, err := c.Scatter(0, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestSplitByParity(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// New ranks ordered by key = old rank.
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("old rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Sum of old ranks within the sub-communicator distinguishes groups.
		got, err := sub.AllreduceSum([]float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		want := 0.0
		for r := c.Rank() % 2; r < 6; r += 2 {
			want += float64(r)
		}
		if got[0] != want {
			return fmt.Errorf("group sum %g, want %g", got[0], want)
		}
		return nil
	})
}

func TestSplitOptOut(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("opt-out rank got a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		return nil
	})
}

func TestSplitIsolatesMessageContexts(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		// Send within sub-communicator using the same tag as a world-level
		// message; they must not cross.
		if sub.Rank() == 0 {
			if err := sub.Send(1, 5, nil, []float64{100 + float64(c.Rank())}); err != nil {
				return err
			}
		} else {
			m, err := sub.Recv(0, 5)
			if err != nil {
				return err
			}
			// sub rank 0 of my group has world rank = my group's even/odd peer
			wantFrom := float64(100 + (c.Rank() % 2))
			if m.Data[0] != wantFrom {
				return fmt.Errorf("cross-context leak: got %v want %v", m.Data[0], wantFrom)
			}
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
		if _, err := c.Scatter(7, nil); err == nil {
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
