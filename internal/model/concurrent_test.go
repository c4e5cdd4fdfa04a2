package model

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/par"
)

// stepReference is Step as it was before the periodic wrap was hoisted out
// of the inner loop: every neighbour index through a modulo, the update
// spelled statement by statement. Kept as the oracle Step must equal bit for
// bit.
func stepReference(a *AdvectionDiffusion, src []float64) []float64 {
	nx, ny := a.Mesh.NX, a.Mesh.NY
	dst := make([]float64, len(src))
	dt := a.Dt
	for y := 0; y < ny; y++ {
		ym := (y - 1 + ny) % ny
		yp := (y + 1) % ny
		for x := 0; x < nx; x++ {
			xm := (x - 1 + nx) % nx
			xp := (x + 1) % nx
			c := src[y*nx+x]
			w := src[y*nx+xm]
			e := src[y*nx+xp]
			s := src[ym*nx+x]
			nn := src[yp*nx+x]

			v := c
			if a.CX >= 0 {
				v -= a.CX * dt * (c - w)
			} else {
				v -= a.CX * dt * (e - c)
			}
			if a.CY >= 0 {
				v -= a.CY * dt * (c - s)
			} else {
				v -= a.CY * dt * (nn - c)
			}
			if a.Nu > 0 {
				v += a.Nu * dt * (w + e + s + nn - 4*c)
			}
			dst[y*nx+x] = v
		}
	}
	return dst
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestStepBitIdenticalToReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {2, 3}, {3, 2}, {7, 5}, {24, 16}}
	params := [][4]float64{
		{0.4, 0.2, 0.02, 1}, {-0.4, 0.2, 0.02, 1}, {0.4, -0.2, 0.02, 1}, {-0.3, -0.3, 0.1, 0.7},
		{0.5, 0.5, 0, 1}, {0, 0, 0.25, 1}, {0, 0, 0, 1},
	}
	for _, sh := range shapes {
		m, err := grid.NewMesh(sh[0], sh[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range params {
			a, err := New(m, p[0], p[1], p[2], p[3])
			if err != nil {
				t.Fatal(err)
			}
			src := randomField(m, uint64(31*sh[0]+sh[1]))
			for step := 0; step < 3; step++ {
				got, err := a.Step(nil, src)
				if err != nil {
					t.Fatal(err)
				}
				want := stepReference(a, src)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("mesh %dx%d params %v step %d: point %d is %x, reference %x",
						sh[0], sh[1], p, step, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				src = got
			}
		}
	}
}

// Run for every step count is the reference step applied that many times, to
// a fresh slice, with the input untouched (the ping-pong must land the last
// step in the result for odd and even counts alike).
func TestRunEqualsRepeatedReferenceStep(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.4, -0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := randomField(m, 5)
	keep := append([]float64(nil), in...)
	want := in
	for steps := 0; steps <= 5; steps++ {
		got, err := a.Run(in, steps)
		if err != nil {
			t.Fatal(err)
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%d steps: differs from the reference at %d", steps, i)
		}
		if &got[0] == &in[0] {
			t.Fatalf("%d steps: result aliases the input", steps)
		}
		if i := sameBits(in, keep); i >= 0 {
			t.Fatalf("%d steps: input modified at %d", steps, i)
		}
		want = stepReference(a, want)
	}
}

func testEnsemble(m grid.Mesh, n int) [][]float64 {
	fields := make([][]float64, n)
	for k := range fields {
		fields[k] = randomField(m, uint64(100+k))
	}
	return fields
}

// runMembers advances every member through RunInto on up to GOMAXPROCS
// workers, each with one scratch buffer it keeps from member to member — the
// way the cycle's forecast pass uses the model.
func runMembers(a *AdvectionDiffusion, fields [][]float64, steps int) ([][]float64, error) {
	out := make([][]float64, len(fields))
	scratch := make([][]float64, runtime.GOMAXPROCS(0))
	err := par.Do(len(fields), len(scratch), func(w, k int) error {
		if scratch[w] == nil {
			scratch[w] = make([]float64, a.Mesh.Points())
		}
		out[k] = make([]float64, a.Mesh.Points())
		return a.RunInto(out[k], scratch[w], fields[k], steps)
	})
	return out, err
}

// RunInto with a worker's reused scratch, members fanned out over GOMAXPROCS
// workers: each member is independent, so the result must be the serial
// per-member loop's bit for bit, whatever the worker count.
func TestRunIntoWorkerScratchEqualsSerialLoopForAnyGOMAXPROCS(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.4, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	fields := testEnsemble(m, 13)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, steps := range []int{0, 1, 2, 3} {
		want := make([][]float64, len(fields))
		for k, f := range fields {
			cur := f
			for s := 0; s < steps; s++ {
				cur = stepReference(a, cur)
			}
			want[k] = cur
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := runMembers(a, fields, steps)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if i := sameBits(got[k], want[k]); i >= 0 {
					t.Fatalf("GOMAXPROCS %d, %d steps: member %d differs from the serial loop at %d", procs, steps, k, i)
				}
			}
		}
	}
}

// One model instance serves concurrent RunInto and Run calls: it holds
// parameters only. Meaningful under -race.
func TestModelIsSafeForConcurrentUse(t *testing.T) {
	m := testMesh(t)
	a, err := New(m, 0.4, 0.2, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	fields := testEnsemble(m, 8)
	want, err := runMembers(a, fields, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := runMembers(a, fields, 3)
			if err != nil {
				errs <- err
				return
			}
			for k := range got {
				if i := sameBits(got[k], want[k]); i >= 0 {
					errs <- fmt.Errorf("concurrent RunInto: member %d differs at %d", k, i)
					return
				}
			}
		}()
		go func(k int) {
			defer wg.Done()
			got, err := a.Run(fields[k], 3)
			if err != nil {
				errs <- err
				return
			}
			if i := sameBits(got, want[k]); i >= 0 {
				errs <- fmt.Errorf("concurrent Run: member %d differs at %d", k, i)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
