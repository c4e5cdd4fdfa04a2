package trace

import "sync"

// Tee is a fan-out Sink: every event goes to the primary sink
// synchronously — in emission order, under the tracer's own lock, exactly
// as if the tee were not there — and to the secondary sink asynchronously
// through an unbounded FIFO drained by one background goroutine. The
// secondary (a live monitor, typically) therefore can never block, slow
// down, or reorder the primary Chrome-trace emission: a stalled secondary
// only grows the queue.
//
// Flush blocks until the secondary has consumed everything emitted so
// far — call it at a run boundary before reading monitor state, so the
// observer's view is complete.
type Tee struct {
	primary   Sink
	secondary Sink

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Event
	busy    bool // drain goroutine is delivering a batch
	closed  bool
	stopped chan struct{}
}

// NewTee starts the drain goroutine and returns the tee. Either sink may
// be nil (that side is skipped), so a monitor-only tracer needs no
// primary buffer.
func NewTee(primary, secondary Sink) *Tee {
	t := &Tee{primary: primary, secondary: secondary, stopped: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	go t.drain()
	return t
}

// Emit forwards to the primary inline and enqueues for the secondary.
// The tracer serializes Emit calls, so primary ordering is emission order.
func (t *Tee) Emit(ev Event) {
	if t.primary != nil {
		t.primary.Emit(ev)
	}
	if t.secondary == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.queue = append(t.queue, ev)
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

func (t *Tee) drain() {
	defer close(t.stopped)
	t.mu.Lock()
	for {
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 && t.closed {
			t.mu.Unlock()
			return
		}
		batch := t.queue
		t.queue = nil
		t.busy = true
		t.mu.Unlock()
		for _, ev := range batch {
			t.secondary.Emit(ev)
		}
		t.mu.Lock()
		t.busy = false
		t.cond.Broadcast()
	}
}

// Flush blocks until every event emitted before the call has been
// delivered to the secondary sink.
func (t *Tee) Flush() {
	if t.secondary == nil {
		return
	}
	t.mu.Lock()
	for len(t.queue) > 0 || t.busy {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close flushes and stops the drain goroutine. Events emitted after Close
// still reach the primary but are dropped for the secondary.
func (t *Tee) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	if t.secondary != nil {
		<-t.stopped
	}
}
