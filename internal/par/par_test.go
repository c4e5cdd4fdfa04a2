package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var seen [n]atomic.Int32
		err := Do(n, workers, func(w, i int) error {
			if limit := max(1, min(workers, n)); w < 0 || w >= limit {
				t.Errorf("workers %d: worker id %d outside [0,%d)", workers, w, limit)
			}
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := Do(0, 4, func(int, int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatalf("empty range: %v", err)
	}
}

// Calls that share a worker id never overlap: per-worker state needs no lock.
// Run under -race, the unsynchronized counters are the assertion.
func TestDoWorkerIDsAreExclusive(t *testing.T) {
	const n, workers = 400, 4
	busy := make([]bool, workers)
	count := make([]int, workers)
	err := Do(n, workers, func(w, i int) error {
		if busy[w] {
			return fmt.Errorf("worker %d re-entered at %d", w, i)
		}
		busy[w] = true
		count[w]++
		busy[w] = false
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range count {
		total += c
	}
	if total != n {
		t.Fatalf("%d calls, want %d", total, n)
	}
}

// The error is that of the lowest failing index whatever the interleaving.
func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 50; round++ {
			const n = 64
			var calls atomic.Int32
			err := Do(n, workers, func(_, i int) error {
				calls.Add(1)
				if i == 9 || i == 10 || i == 40 {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "item 9" {
				t.Fatalf("workers %d: err = %v, want item 9", workers, err)
			}
			if c := int(calls.Load()); workers == 1 && c != 10 {
				t.Fatalf("serial: %d calls, want to stop after item 9", c)
			}
		}
	}
}
