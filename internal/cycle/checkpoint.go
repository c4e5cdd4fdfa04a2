package cycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"senkf/internal/ckpt"
	"senkf/internal/grid"
)

// Checkpointer cuts crash-consistent checkpoints of a cycled experiment
// through the per-cycle Hook. Every cycle's post-analysis state is encoded
// as the pending checkpoint image — the one copy of the state a checkpoint
// makes, into storage the checkpointer reuses from cycle to cycle; every
// Every cycles (default 1) it is landed in Dir and old checkpoints are
// pruned to the newest Keep (0 keeps all). Flush lands the pending image
// immediately — the graceful-shutdown path, so an interrupted run loses at
// most the in-flight cycle.
type Checkpointer struct {
	Dir      string
	Every    int
	Keep     int
	Seed     uint64
	Config   map[string]string
	PlanHash string
	RunID    string

	mu      sync.Mutex
	mesh    grid.Mesh
	pending *ckpt.Image
	hist    historyJSON
	written bool
	last    int // cycle of the last written checkpoint
}

// historyJSON is json.Marshal of a run's history, kept from cycle to cycle so
// that each cycle's checkpoint encodes only the entries the cycle added, not
// a history as long as the run.
type historyJSON struct {
	open    []byte // json.Marshal of the history's first n entries, less the ']'
	n       int
	lastLen int // bytes of entry n-1's encoding, which ends open
}

// encode returns json.Marshal(h), in a slice of its own. It appends h's new
// entries when h extends the history kept, judged by its last kept entry,
// and encodes h afresh when h is shorter or that entry's encoding differs.
func (e *historyJSON) encode(h []Stats) ([]byte, error) {
	if h == nil {
		return []byte("null"), nil
	}
	if e.n > 0 && len(h) >= e.n {
		last, err := json.Marshal(h[e.n-1])
		if err != nil || !bytes.Equal(last, e.open[len(e.open)-e.lastLen:]) {
			e.n = 0
		}
	} else {
		e.n = 0
	}
	if e.n == 0 {
		e.open = append(e.open[:0], '[')
	}
	for _, s := range h[e.n:] {
		entry, err := json.Marshal(s)
		if err != nil {
			e.n = 0
			return nil, err
		}
		if e.n > 0 {
			e.open = append(e.open, ',')
		}
		e.open, e.n, e.lastLen = append(e.open, entry...), e.n+1, len(entry)
	}
	return append(append(make([]byte, 0, len(e.open)+1), e.open...), ']'), nil
}

// Hook returns the per-cycle hook that drives this checkpointer.
func (cp *Checkpointer) Hook(c Config) Hook {
	cp.mu.Lock()
	cp.mesh = c.Enkf.Mesh
	cp.mu.Unlock()
	return func(st State) error {
		cp.mu.Lock()
		defer cp.mu.Unlock()
		hist, err := cp.hist.encode(st.History)
		if err != nil {
			return fmt.Errorf("cycle: marshal history: %w", err)
		}
		// The run loop goes on with the live slices and Flush may fire from a
		// signal handler, so the state is encoded now, under the lock. The
		// previous image is either landed or superseded: its storage is reused.
		img, err := ckpt.Encode(cp.mesh, ckpt.State{
			Cycle:    st.NextCycle - 1,
			Truth:    st.Truth,
			Ensemble: st.Ensemble,
			Free:     st.Free,
			History:  hist,
			Seed:     cp.Seed,
			Config:   cp.Config,
			PlanHash: cp.PlanHash,
			RunID:    cp.RunID,
		}, cp.pending)
		if err != nil {
			return err
		}
		cp.pending = img
		every := cp.Every
		if every <= 0 {
			every = 1
		}
		if st.NextCycle%every != 0 {
			return nil
		}
		return cp.writeLocked()
	}
}

// Flush writes the pending snapshot if it is newer than the last checkpoint
// on disk. Safe to call from a signal handler concurrently with the run.
func (cp *Checkpointer) Flush() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.writeLocked()
}

// LastCycle returns the cycle of the most recent checkpoint written, or −1.
func (cp *Checkpointer) LastCycle() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !cp.written {
		return -1
	}
	return cp.last
}

func (cp *Checkpointer) writeLocked() error {
	if cp.pending == nil || (cp.written && cp.pending.Cycle() == cp.last) {
		return nil
	}
	if _, err := cp.pending.Write(cp.Dir); err != nil {
		return err
	}
	cp.written, cp.last = true, cp.pending.Cycle()
	if cp.Keep > 0 {
		if err := ckpt.Prune(cp.Dir, cp.Keep); err != nil {
			return err
		}
	}
	return nil
}

// Restore converts a loaded checkpoint back into a resumable run state.
// The returned state resumes at the cycle after the checkpointed one.
func Restore(l *ckpt.Loaded) (State, error) {
	var history []Stats
	if len(l.State.History) > 0 {
		if err := json.Unmarshal(l.State.History, &history); err != nil {
			return State{}, fmt.Errorf("cycle: checkpoint history: %w", err)
		}
	}
	return State{
		NextCycle: l.State.Cycle + 1,
		Truth:     l.State.Truth,
		Ensemble:  l.State.Ensemble,
		Free:      l.State.Free,
		History:   history,
	}, nil
}
