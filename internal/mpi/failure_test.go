package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestRankDeathMidCollectivePropagates kills one rank mid-barrier and
// asserts that every surviving rank comes back with a *RankFailedError
// naming the dead rank — no hang, no leaked goroutines.
func TestRankDeathMidCollectivePropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := NewWorld(6)
	boom := errors.New("simulated media failure")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 3 {
			return boom // dies before entering the barrier
		}
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("world succeeded despite a dead rank")
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("joined error does not match ErrAborted: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("joined error lost the original cause: %v", err)
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("no *RankFailedError in %v", err)
	}
	if rf.Rank != 3 {
		t.Errorf("RankFailedError names rank %d, want 3", rf.Rank)
	}
	// All goroutines must have exited (Run waits, but a leaked helper would
	// show up here).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRankDeathMidAllreduce exercises the reduce+bcast tree: the root's
// collective partner dies and every live rank still unblocks.
func TestRankDeathMidAllreduce(t *testing.T) {
	w, _ := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("rank 1 media failure")
		}
		_, err := c.AllreduceSum([]float64{float64(c.Rank())})
		return err
	})
	if err == nil {
		t.Fatal("allreduce with a dead rank succeeded")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Errorf("want RankFailedError{Rank: 1}, got %v", err)
	}
}

// TestRankFailedErrorIdentity pins the error-matching contract.
func TestRankFailedErrorIdentity(t *testing.T) {
	cause := errors.New("root cause")
	err := &RankFailedError{Rank: 7, Cause: cause}
	if !errors.Is(err, ErrAborted) {
		t.Error("RankFailedError does not match ErrAborted")
	}
	if !errors.Is(err, cause) {
		t.Error("RankFailedError does not unwrap to its cause")
	}
}

// TestDeathWhilePeersBlockInSendRecvChain kills the middle of a ring so
// both neighbours are blocked in Recv when the abort lands.
func TestDeathWhilePeersBlockInSendRecvChain(t *testing.T) {
	w, _ := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			time.Sleep(10 * time.Millisecond) // let the peers block first
			return errors.New("rank 1 dies")
		default:
			_, err := c.Recv(1, 0)
			return err
		}
	})
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("want RankFailedError{Rank: 1}, got %v", err)
	}
	// Both survivors must report the failure too (their Recv was poisoned).
	msg := err.Error()
	for _, want := range []string{"rank 0", "rank 2"} {
		if !contains(msg, want) {
			t.Errorf("joined error misses %s: %v", want, err)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
