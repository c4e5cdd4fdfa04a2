package enkf

import (
	"fmt"
	"math"
	"testing"

	"senkf/internal/grid"
)

// rowByRowBackground is the write-through as it was written before it went
// member by member: the inflated background of row y's points [x0, x1) from
// blk into dst, one row's run at a time, every member of it.
func rowByRowBackground(c Config, dst, blk *Block, x0, x1, y int) {
	run := x1 - x0
	src := (y-blk.Box.Y0)*blk.Box.Width() + x0 - blk.Box.X0
	off := (y-dst.Box.Y0)*dst.Box.Width() + x0 - dst.Box.X0
	if c.Inflation <= 0 || c.Inflation == 1 {
		for k, member := range blk.Data {
			copy(dst.Data[k][off:off+run], member[src:])
		}
		return
	}
	mean := make([]float64, run)
	for _, member := range blk.Data {
		for i, v := range member[src:][:run] {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(blk.Data))
	}
	for k, member := range blk.Data {
		out := dst.Data[k][off:][:run]
		for i, v := range member[src:][:run] {
			out[i] = mean[i] + c.Inflation*(v-mean[i])
		}
	}
}

// TestWriteThroughMatchesRowByRow: with the cycle's inflation of 1.1, sparse
// networks that leave unreached runs over several rows, and a destination
// two points wider than the target on every side, AnalyzeInto's destination
// is bit for bit what the row-by-row write-through gives for the unreached
// runs and what AnalyzePoint gives for the solved points, NaN untouched
// outside the target included. One workspace serves every case, so runs a
// larger target left behind would show.
func TestWriteThroughMatchesRowByRow(t *testing.T) {
	var ws Workspace
	var rowsWithRuns, solved int
	for seed := uint64(3501); seed < 3501+6*sparseKinds; seed++ {
		for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF} {
			rc := newSparseCase(t, seed, solver, 1.1)
			what := fmt.Sprintf("seed %d (%v)", seed, rc)
			tg := rc.target
			box := grid.Box{X0: tg.X0 - 2, X1: tg.X1 + 2, Y0: tg.Y0 - 2, Y1: tg.Y1 + 2}
			got, want := NewBlock(box, rc.cfg.N), NewBlock(box, rc.cfg.N)
			for k := range got.Data {
				for i := range got.Data[k] {
					got.Data[k][i], want.Data[k][i] = math.NaN(), math.NaN()
				}
			}
			if err := ws.AnalyzeInto(rc.cfg, got, rc.blk, rc.cands, tg, nil); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for y := tg.Y0; y < tg.Y1; y++ {
				reach := ws.reach[(y-tg.Y0)*tg.Width():][:tg.Width()]
				hasRun := false
				for i := 0; i < len(reach); {
					if reach[i] {
						xa, err := rc.cfg.AnalyzePoint(rc.blk, rc.cands, tg.X0+i, y)
						if err != nil {
							t.Fatalf("%s: point (%d,%d): %v", what, tg.X0+i, y, err)
						}
						off := (y-box.Y0)*box.Width() + tg.X0 + i - box.X0
						for k, v := range xa {
							want.Data[k][off] = v
						}
						solved++
						i++
						continue
					}
					j := i + 1
					for j < len(reach) && !reach[j] {
						j++
					}
					rowByRowBackground(rc.cfg, want, rc.blk, tg.X0+i, tg.X0+j, y)
					hasRun = true
					i = j
				}
				if hasRun {
					rowsWithRuns++
				}
			}
			for k := range got.Data {
				for i, v := range got.Data[k] {
					if math.Float64bits(v) != math.Float64bits(want.Data[k][i]) {
						t.Fatalf("%s: member %d at (%d,%d) is %v, the row-by-row write-through gives %v",
							what, k, box.X0+i%box.Width(), box.Y0+i/box.Width(), v, want.Data[k][i])
					}
				}
			}
		}
	}
	if rowsWithRuns < 2 || solved == 0 {
		t.Fatalf("the cases wrote through %d rows and solved %d points; both paths must be in play", rowsWithRuns, solved)
	}
}
