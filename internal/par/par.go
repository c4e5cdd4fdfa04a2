// Package par runs independent, index-addressed work on a bounded number of
// goroutines. It is the one fan-out the cycle's serial phases share: the
// forecast's jobs (cycle: the truth and each member, advanced and perturbed
// by one worker) and member-file writes (ensio) are each "do item i for
// every i in [0, n)", with no item reading what another writes.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(w, i) once for every i in [0, n) from at most workers
// goroutines and returns when all calls have returned. w identifies the
// calling worker, 0 ≤ w < min(workers, n): calls that share a w never
// overlap, so per-worker state indexed by w needs no lock. Items are claimed
// in increasing order. After a call fails no further item is claimed, and Do
// returns the error of the lowest failing index — the same error a serial
// loop that stops at its first failure returns, whatever the interleaving,
// because every index below a claimed one has itself been claimed and runs
// to completion. With one worker (or one item) Do is that serial loop, on
// the caller's goroutine.
func Do(n, workers int, fn func(w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex // guards first and result
		first  = n
		result error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < first {
						first, result = i, err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return result
}
