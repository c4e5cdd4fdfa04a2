// Multi-level: a 3-D ocean state (several vertical levels per grid point,
// like the 30 levels behind the paper's h = 240 bytes) assimilated by
// S-EnKF. The point of the level-interleaved file layout is that an I/O
// rank's bar read fetches *all* levels of its rows with a single
// disk-addressing operation — the bar-reading co-design carries over to 3-D
// states unchanged, while block reading would pay one (levels-times
// heavier) seek per row.
package main

import (
	"fmt"
	"log"
	"os"

	"senkf"
)

func main() {
	log.SetFlags(0)

	const levels = 6
	const members = 16
	const seed = 77

	mesh, err := senkf.NewMesh(48, 24)
	if err != nil {
		log.Fatal(err)
	}
	radius, err := senkf.NewRadius(3, 2)
	if err != nil {
		log.Fatal(err)
	}

	truths, err := senkf.GenerateTruthLevels(mesh, senkf.DefaultFieldSpec, levels, seed)
	if err != nil {
		log.Fatal(err)
	}
	ensemble, err := senkf.GenerateEnsembleLevels(mesh, truths, members, 1.5, seed)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "senkf-multilevel")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := senkf.WriteEnsembleLevels(dir, mesh, ensemble); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d members x %d levels (%d x %d grid, h = %d bytes per point)\n",
		members, levels, mesh.NX, mesh.NY, 8*levels)

	// Each level has its own observation network (e.g. different
	// instruments at different depths).
	nets := make([]*senkf.Network, levels)
	for l := 0; l < levels; l++ {
		nets[l], err = senkf.NewStridedNetwork(mesh, truths[l], 2+l%2, 2, 0.01, seed+uint64(l))
		if err != nil {
			log.Fatal(err)
		}
	}

	cfg := senkf.Config{Mesh: mesh, Radius: radius, N: members, Seed: seed}
	dec, err := senkf.NewDecomposition(mesh, 4, 2, radius)
	if err != nil {
		log.Fatal(err)
	}

	// A multilevel run is not a separate code path: it is the same compiled
	// plan the single-level S-EnKF executes, with the level dimension set in
	// the spec. RunSEnKFMultiLevel is a thin wrapper that compiles this spec
	// and hands it to the one shared engine.
	cp, err := senkf.CompilePlan(senkf.SEnKFSpec(dec, members, 3, 2).WithLevels(levels))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled plan: %s\n", cp)

	problem := senkf.Problem{Cfg: cfg, Dir: dir, Nets: nets}
	analysis, err := senkf.RunSEnKFMultiLevel(problem, senkf.Plan{Dec: dec, L: 3, NCg: 2})
	if err != nil {
		log.Fatal(err)
	}

	// The block-reading baseline runs the same levels through the same
	// engine — only the compiled reading strategy differs — so the two
	// analyses agree bit for bit.
	baseline, err := senkf.RunPEnKFMultiLevel(problem, dec)
	if err != nil {
		log.Fatal(err)
	}
	for l := range analysis {
		for k := range analysis[l] {
			for i := range analysis[l][k] {
				if analysis[l][k][i] != baseline[l][k][i] {
					log.Fatalf("S-EnKF and P-EnKF disagree at level %d member %d point %d", l, k, i)
				}
			}
		}
	}
	fmt.Println("S-EnKF and the P-EnKF baseline agree bit for bit on every level")

	fmt.Println("\nlevel | observations | background RMSE | analysis RMSE")
	for l := 0; l < levels; l++ {
		bg := make([][]float64, members)
		for k := 0; k < members; k++ {
			bg[k] = ensemble[k][l]
		}
		before := senkf.RMSE(senkf.EnsembleMean(bg), truths[l])
		after := senkf.RMSE(senkf.EnsembleMean(analysis[l]), truths[l])
		fmt.Printf("%5d | %12d | %15.4f | %13.4f\n", l, nets[l].Len(), before, after)
	}
}
