package obs

import (
	"sync"
	"sync/atomic"
)

// Perturbations is one analysis's table of centred perturbed rows: row i is
// CenteredPerturbations(obs[i], members, seed) for the observation list the
// table was made over. A row depends on the observation, the member count
// and the seed, never on the box being analysed, yet overlapping boxes — one
// rank's stage boxes, neighbouring ranks' expansions — each need the rows of
// the observations they share. Through a table each row is drawn once, by the
// first goroutine that asks for it, with CenteredPerturbationsInto itself, so
// its bits are those of a draw in place; every other asker copies it.
//
// A table is scoped to one run: NewPerturbations takes it from a pool and
// Release gives it back once no goroutine uses it. It is never kept on a
// Network, so a later analysis of the same network draws again.
type Perturbations struct {
	obs     []Observation
	members int
	seed    uint64
	rows    []float64   // row i is rows[i·members : (i+1)·members]
	once    []sync.Once // row i is drawn under once[i]
	drawn   atomic.Int64
}

// tables holds released tables: a run of the same shape reuses their rows.
var tables = sync.Pool{New: func() any { return new(Perturbations) }}

// NewPerturbations returns an empty table over obs for the given member count
// and seed; no row is drawn until it is asked for. Safe for concurrent use
// once returned.
func NewPerturbations(obs []Observation, members int, seed uint64) *Perturbations {
	t := tables.Get().(*Perturbations)
	t.obs, t.members, t.seed = obs, members, seed
	if n := len(obs) * members; cap(t.rows) < n {
		t.rows = make([]float64, n)
	} else {
		t.rows = t.rows[:n]
	}
	if cap(t.once) < len(obs) {
		t.once = make([]sync.Once, len(obs))
	} else {
		t.once = t.once[:len(obs)]
		clear(t.once) // what the table held before is drawn again
	}
	t.drawn.Store(0)
	return t
}

// Release gives the table back to the pool. Neither the table nor a row it
// returned may be used afterwards.
func (t *Perturbations) Release() {
	t.obs = nil
	tables.Put(t)
}

// For reports whether the table was made over exactly the slice obs (the
// same elements, not equal ones), members and seed: whether Row(i) is the
// centred row of obs[i].
func (t *Perturbations) For(obs []Observation, members int, seed uint64) bool {
	if len(obs) != len(t.obs) || members != t.members || seed != t.seed {
		return false
	}
	return len(obs) == 0 || &obs[0] == &t.obs[0]
}

// Row returns observation i's centred perturbed row, drawing it if no one has
// yet. The caller must not modify it.
func (t *Perturbations) Row(i int) []float64 {
	row := t.rows[i*t.members : (i+1)*t.members : (i+1)*t.members]
	t.once[i].Do(func() {
		CenteredPerturbationsInto(row, t.obs[i], t.seed)
		t.drawn.Add(1)
	})
	return row
}

// Drawn returns how many rows have been drawn since the table was made.
func (t *Perturbations) Drawn() int { return int(t.drawn.Load()) }
