package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestAllToAllStorm exercises heavy concurrent traffic: every rank sends a
// message to every other rank with a per-pair tag, and receives one from
// everyone. Nothing may be lost, duplicated, or mismatched.
func TestAllToAllStorm(t *testing.T) {
	const n = 12
	const rounds = 20
	run(t, n, func(c *Comm) error {
		me := c.Rank()
		for r := 0; r < rounds; r++ {
			for dst := 0; dst < n; dst++ {
				if dst == me {
					continue
				}
				payload := []float64{float64(me*1000 + r)}
				if err := c.Send(dst, r, []int{me}, payload); err != nil {
					return err
				}
			}
			seen := map[int]bool{}
			for i := 0; i < n-1; i++ {
				m, err := c.Recv(AnySource, r)
				if err != nil {
					return err
				}
				src := m.Meta[0]
				if seen[src] {
					return fmt.Errorf("round %d: duplicate from %d", r, src)
				}
				seen[src] = true
				if m.Data[0] != float64(src*1000+r) {
					return fmt.Errorf("round %d: bad payload from %d: %g", r, src, m.Data[0])
				}
			}
		}
		return nil
	})
}

// TestConcurrentRecvSameRank exercises the helper-thread pattern: two
// goroutines of the same rank receive concurrently on disjoint tag ranges.
func TestConcurrentRecvSameRank(t *testing.T) {
	const msgs = 50
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, nil, []float64{float64(i)}); err != nil {
					return err
				}
				if err := c.Send(1, 1000+i, nil, []float64{float64(1000 + i)}); err != nil {
					return err
				}
			}
			return nil
		}
		var lowSum, highSum int64
		done := make(chan error, 2)
		go func() {
			for i := 0; i < msgs; i++ {
				m, err := c.Recv(0, i)
				if err != nil {
					done <- err
					return
				}
				atomic.AddInt64(&lowSum, int64(m.Data[0]))
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < msgs; i++ {
				m, err := c.Recv(0, 1000+i)
				if err != nil {
					done <- err
					return
				}
				atomic.AddInt64(&highSum, int64(m.Data[0]))
			}
			done <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				return err
			}
		}
		wantLow := int64(msgs * (msgs - 1) / 2)
		wantHigh := int64(1000*msgs + msgs*(msgs-1)/2)
		if lowSum != wantLow || highSum != wantHigh {
			return fmt.Errorf("sums %d/%d, want %d/%d", lowSum, highSum, wantLow, wantHigh)
		}
		return nil
	})
}

// TestQuickScatterGatherRoundTrip checks parts spread one per rank → local
// transform → gather at rank 0 against the direct computation for random
// world sizes.
func TestQuickScatterGatherRoundTrip(t *testing.T) {
	f := func(sizeRaw uint8, seed int64) bool {
		n := int(sizeRaw%6) + 2
		w, err := NewWorld(n)
		if err != nil {
			return false
		}
		parts := make([][]float64, n)
		for i := range parts {
			parts[i] = []float64{float64(seed%100) + float64(i)}
		}
		var result [][]float64
		err = w.Run(func(c *Comm) error {
			part := []float64{parts[c.Rank()][0] * 2}
			all, err := c.Gather(0, part)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				result = all
			}
			return nil
		})
		if err != nil {
			return false
		}
		for i := range parts {
			if result[i][0] != parts[i][0]*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBcastLargePayload moves a multi-megabyte broadcast through the tree.
func TestBcastLargePayload(t *testing.T) {
	const size = 1 << 18 // 256k float64 = 2 MiB
	run(t, 5, func(c *Comm) error {
		var data []float64
		if c.Rank() == 2 {
			data = make([]float64, size)
			for i := range data {
				data[i] = float64(i % 977)
			}
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if len(got) != size {
			return fmt.Errorf("rank %d got %d values", c.Rank(), len(got))
		}
		for i := 0; i < size; i += 7919 {
			if got[i] != float64(i%977) {
				return fmt.Errorf("rank %d corrupted at %d", c.Rank(), i)
			}
		}
		return nil
	})
}
