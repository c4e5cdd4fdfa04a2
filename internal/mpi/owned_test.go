package mpi

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"senkf/internal/trace"
)

// TestSendOwnedHandsOverPayload: the receiver's Data is the sender's slice
// itself — no copy in between — while Meta is still the receiver's own.
func TestSendOwnedHandsOverPayload(t *testing.T) {
	sent := []float64{1, 2, 3}
	meta := []int{5}
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendOwned(1, 1, meta, sent); err != nil {
				return err
			}
			meta[0] = 99 // meta stays the sender's to reuse
			return nil
		}
		got, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(got.Data) != len(sent) || &got.Data[0] != &sent[0] {
			return fmt.Errorf("payload was copied: got %p, sent %p", got.Data, sent)
		}
		if got.Meta[0] != 5 {
			return fmt.Errorf("meta aliased the sender's: %v", got.Meta)
		}
		return nil
	})
}

func TestSendOwnedValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := c.SendOwned(2, 0, nil, nil); err == nil {
			return fmt.Errorf("expected out-of-range destination error")
		}
		if err := c.SendOwned(1-c.Rank(), -1, nil, nil); err == nil {
			return fmt.Errorf("expected negative tag error")
		}
		return nil
	})
}

// observed is one MsgObserver callback without its clock readings.
type observed struct {
	src, dst, tag int
	bytes         int64
	depth         int
}

type recordingObserver struct {
	mu   sync.Mutex
	seen []observed
}

func (o *recordingObserver) OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, observed{src, dst, tag, bytes, depth})
}

// TestSendOwnedAccountsLikeSend sends the same message through Send and
// through SendOwned and compares everything the transport reports about it:
// CommStats, the message observer's callback, the counters and the trace
// events (including the per-send detail instant).
func TestSendOwnedAccountsLikeSend(t *testing.T) {
	type report struct {
		stats    [2]CommStats
		observed []observed
		msgs     float64
		bytes    float64
		events   []string
	}
	exchange := func(send func(c *Comm, dst, tag int, meta []int, data []float64) error) report {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		buf := trace.NewBuffer()
		tr := trace.New(nil, buf)
		tr.SetCounters(trace.NewRegistry())
		tr.SetDetail(true)
		w.SetTracer(tr)
		obs := &recordingObserver{}
		w.SetMsgObserver(obs)
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				// 2 meta ints + 3 data floats = 40 bytes.
				return send(c, 1, 7, []int{1, 2}, []float64{1, 2, 3})
			}
			m, err := c.Recv(0, 7)
			if err == nil && !reflect.DeepEqual(m, Message{Src: 0, Tag: 7, Meta: []int{1, 2}, Data: []float64{1, 2, 3}}) {
				err = fmt.Errorf("received %+v", m)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		r := report{
			stats:    [2]CommStats{w.RankStats(0), w.RankStats(1)},
			observed: obs.seen,
			msgs:     tr.Counters().CounterValue("mpi.msgs"),
			bytes:    tr.Counters().CounterValue("mpi.bytes"),
		}
		for _, ev := range buf.Events() {
			s := fmt.Sprintf("%s %s %s %c", ev.Track, ev.Cat, ev.Name, ev.Ph)
			for _, a := range ev.Args {
				s += fmt.Sprintf(" %s=%v", a.Key, a.Val)
			}
			r.events = append(r.events, s)
		}
		sort.Strings(r.events) // the send instant and the recv span race
		return r
	}
	copied := exchange((*Comm).Send)
	owned := exchange((*Comm).SendOwned)
	if !reflect.DeepEqual(copied, owned) {
		t.Errorf("SendOwned reports\n%+v\nSend reports\n%+v", owned, copied)
	}
	if copied.stats[0].BytesSent != 40 || len(copied.observed) != 1 || copied.msgs != 1 || len(copied.events) != 2 {
		t.Errorf("the comparison saw too little: %+v", copied)
	}
}

// TestInboxDropsTakenEnvelopes: take shifts the tail of the queue down, and
// must clear the slot it vacates — otherwise the backing array keeps the last
// envelope, and the payload it was handed, reachable after its receiver has
// dropped it.
func TestInboxDropsTakenEnvelopes(t *testing.T) {
	ib := newInbox()
	for tag := 0; tag < 4; tag++ {
		ib.put(envelope{Message: Message{Tag: tag, Data: []float64{float64(tag)}}})
	}
	backing := ib.msgs[:cap(ib.msgs)]
	for _, tag := range []int{1, 0, 3, 2} { // from the middle, the front and the back
		e, _, err := ib.take(0, AnySource, tag, 0)
		if err != nil || e.Tag != tag {
			t.Fatalf("take(tag %d) = %+v, %v", tag, e.Message, err)
		}
	}
	if len(ib.msgs) != 0 {
		t.Fatalf("%d messages left after draining", len(ib.msgs))
	}
	for i, e := range backing {
		if e.Data != nil {
			t.Errorf("drained inbox still holds the payload of tag %d in slot %d", e.Tag, i)
		}
	}
}
