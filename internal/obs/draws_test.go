package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"senkf/internal/linalg"
)

// oracleCenteredPerturbationsInto is CenteredPerturbationsInto as it was
// before it mixed the observation's keys once, kept verbatim.
func oracleCenteredPerturbationsInto(dst []float64, o Observation, seed uint64) {
	var mean float64
	keys := o.perturbKeys(0)
	for k := range dst {
		keys[len(keys)-1] = k // the member is the last key
		s := linalg.KeyedStream(seed, keys[:]...)
		e := s.Norm() * sqrt(o.Variance)
		dst[k] = e
		mean += e
	}
	mean /= float64(len(dst))
	for k := range dst {
		dst[k] = o.Value + (dst[k] - mean)
	}
}

// drawCase is a generated network: on-grid points at random strides,
// off-grid points, and repeats of some of both (two observations of one
// position share their streams, and each is a row of its own).
func drawCase(t *testing.T, seed uint64) (*Network, int) {
	t.Helper()
	s := linalg.KeyedStream(seed, 0xD4A3)
	m := testMesh(t, 4+s.Intn(20), 3+s.Intn(12))
	truth := make([]float64, m.Points())
	for i := range truth {
		truth[i] = s.Norm()
	}
	strided, err := StridedNetwork(m, truth, 1+s.Intn(4), 1+s.Intn(4), 0.01+s.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	offGrid, err := RandomOffGridNetwork(m, truth, s.Intn(30), 0.01+s.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Observation{}, strided.Obs...), offGrid.Obs...)
	for i, n := 0, len(all); i < n/4; i++ {
		all = append(all, all[s.Intn(n)])
	}
	net, err := NewNetwork(m, all)
	if err != nil {
		t.Fatal(err)
	}
	return net, 2 + s.Intn(40)
}

// Every row of a table is the bits of CenteredPerturbations, and of the
// draw as it was before the observation's keys were mixed once.
func TestPerturbationTableRowsAreCenteredPerturbations(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		net, members := drawCase(t, seed)
		tab := NewPerturbations(net.Obs, members, seed)
		oracle := make([]float64, members)
		for i, o := range net.Obs {
			want := CenteredPerturbations(o, members, seed)
			oracleCenteredPerturbationsInto(oracle, o, seed)
			for k, v := range tab.Row(i) {
				if math.Float64bits(v) != math.Float64bits(want[k]) || math.Float64bits(v) != math.Float64bits(oracle[k]) {
					t.Fatalf("seed %d observation %d %+v member %d: table %v, CenteredPerturbations %v, oracle %v", seed, i, o, k, v, want[k], oracle[k])
				}
			}
		}
		if tab.Drawn() != net.Len() {
			t.Fatalf("seed %d: %d rows drawn for %d observations", seed, tab.Drawn(), net.Len())
		}
		tab.Release()
	}
}

// Eight goroutines asking for every row in different orders draw each row
// once and see the same bits (run under -race, this is also the check that a
// row is published before it is copied).
func TestPerturbationTableDrawsEachRowOnce(t *testing.T) {
	for seed := uint64(100); seed < 110; seed++ {
		net, members := drawCase(t, seed)
		tab := NewPerturbations(net.Obs, members, seed)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				order := linalg.KeyedStream(seed, g).Perm(net.Len())
				for _, i := range order {
					want := CenteredPerturbations(net.Obs[i], members, seed)
					for k, v := range tab.Row(i) {
						if math.Float64bits(v) != math.Float64bits(want[k]) {
							errs[g] = fmt.Errorf("goroutine %d row %d member %d: %v, want %v", g, i, k, v, want[k])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if tab.Drawn() != net.Len() {
			t.Fatalf("seed %d: %d rows drawn for %d observations by 8 goroutines", seed, tab.Drawn(), net.Len())
		}
		tab.Release()
	}
}

// A released table that comes back for another network, seed or member count
// draws every row again: none of the previous one's rows is returned.
func TestReusedPerturbationTableForgetsItsRows(t *testing.T) {
	reused := 0
	for seed := uint64(200); seed < 240; seed++ {
		a, na := drawCase(t, seed)
		b, nb := drawCase(t, seed+1000)
		first := NewPerturbations(a.Obs, na, seed)
		for i := range a.Obs {
			first.Row(i)
		}
		first.Release()
		// The same observations under another seed, then another network.
		for _, tc := range []struct {
			net     *Network
			members int
			seed    uint64
		}{{a, na, seed + 1}, {b, nb, seed}} {
			tab := NewPerturbations(tc.net.Obs, tc.members, tc.seed)
			if tab == first {
				reused++
			}
			if tab.Drawn() != 0 {
				t.Fatalf("seed %d: a new table has %d rows drawn", seed, tab.Drawn())
			}
			for i, o := range tc.net.Obs {
				want := CenteredPerturbations(o, tc.members, tc.seed)
				got := tab.Row(i)
				if len(got) != len(want) {
					t.Fatalf("seed %d: row %d has %d members, want %d", seed, i, len(got), len(want))
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("seed %d row %d member %d: %v, want %v (a row of the table's previous use?)", seed, i, k, got[k], want[k])
					}
				}
			}
			tab.Release()
			first = tab
		}
	}
	if reused == 0 {
		t.Fatal("the pool never handed a released table back: the test checked nothing")
	}
	t.Logf("%d of 80 tables were a reused one", reused)
}

// For accepts the slice a table was made over and nothing else: not an equal
// copy, a prefix, another member count or seed.
func TestPerturbationTableForItsOwnSliceOnly(t *testing.T) {
	net, members := drawCase(t, 7)
	tab := NewPerturbations(net.Obs, members, 7)
	defer tab.Release()
	cp := append([]Observation{}, net.Obs...)
	for _, tc := range []struct {
		name    string
		obs     []Observation
		members int
		seed    uint64
		want    bool
	}{
		{"its own slice", net.Obs, members, 7, true},
		{"an equal copy", cp, members, 7, false},
		{"a prefix", net.Obs[:len(net.Obs)-1], members, 7, false},
		{"another member count", net.Obs, members + 1, 7, false},
		{"another seed", net.Obs, members, 8, false},
	} {
		if got := tab.For(tc.obs, tc.members, tc.seed); got != tc.want {
			t.Errorf("%s: For = %v, want %v", tc.name, got, tc.want)
		}
	}
}
