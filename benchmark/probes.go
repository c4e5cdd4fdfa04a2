package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"senkf/internal/baseline"
	"senkf/internal/ckpt"
	"senkf/internal/core"
	"senkf/internal/costmodel"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/monitor"
	"senkf/internal/mpi"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/schedule"
	"senkf/internal/sim"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// The layer probes time each layer's exported functions from outside, on
// the inputs of the dense, stream and cycle workloads and on the simcell
// geometry. Every traced run runs all of them, whichever workload it traced:
// a probe does not depend on the traced workload, only on the seed. Call
// counts are fixed, so the counts a probe reports repeat exactly.

// probeSet carries the probes' inputs and collects their values; the first
// error a probe meets is kept and the remaining probes still run.
type probeSet struct {
	o      options
	dir    string
	values map[string]float64
	err    error
	dense  *realWorkload
	stream *realWorkload
}

func (p *probeSet) fail(probe string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", probe, err)
	}
}

// seconds times n calls of f, which may fail, and returns the median.
func (p *probeSet) seconds(probe string, n int, f func() error) float64 {
	return medianTime(n, func() { p.fail(probe, f()) })
}

// calls scales a probe's call count down for the smoke run.
func (p *probeSet) calls(n int) int {
	if p.o.smoke {
		return min(n, 2)
	}
	return n
}

func runProbes(o options, dir string, values map[string]float64) error {
	p := &probeSet{o: o, dir: dir, values: values}
	var err error
	if p.dense, err = p.inputs("dense"); err != nil {
		return err
	}
	if p.stream, err = p.inputs("stream"); err != nil {
		return err
	}
	for _, probe := range []func(){
		p.linalg, p.obs, p.enkf, p.ensio, p.mpi, p.plan, p.engines,
		p.simulator, p.modelAndCheckpoint, p.observers,
	} {
		probe()
	}
	return p.err
}

// inputs generates the inputs of the named real workload, without its
// serial reference, for the probes to drive the layers on.
func (p *probeSet) inputs(name string) (*realWorkload, error) {
	w, err := newWorkload(name, p.o.smoke)
	if err != nil {
		return nil, err
	}
	rw := w.(*realWorkload)
	if err := rw.setupInputs(p.o.seed, filepath.Join(p.dir, name)); err != nil {
		return nil, fmt.Errorf("probe inputs %s: %w", name, err)
	}
	return rw, nil
}

func randomMatrix(s *linalg.Stream, r, c int) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}

// spd returns a well-conditioned symmetric positive definite n×n matrix.
func spd(s *linalg.Stream, n int) *linalg.Matrix {
	m := linalg.AAT(randomMatrix(s, n, n+2))
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += float64(n)
	}
	return m
}

func (p *probeSet) linalg() {
	s := linalg.NewStream(p.o.seed)
	us := func(name string, f func() error) {
		p.values[name] = 1e6 * p.seconds(name, p.calls(300), f)
	}
	a64 := spd(s, 64)
	l64, err := linalg.Cholesky(a64)
	p.fail("linalg", err)
	us("linalg.cholesky64_us", func() error { _, err := linalg.Cholesky(a64); return err })
	if l64 != nil {
		b := randomMatrix(s, 64, 32)
		us("linalg.cholsolve64x32_us", func() error { _, err := linalg.CholSolveMatrix(l64, b); return err })
	}
	x, y := randomMatrix(s, 64, 64), randomMatrix(s, 64, 64)
	us("linalg.matmul64_us", func() error { _, err := linalg.MatMul(x, y); return err })
	r := randomMatrix(s, 64, 66)
	us("linalg.aat64_us", func() error { linalg.AAT(r); return nil })
	u := randomMatrix(s, 25, 40)
	linalg.CenterRows(u)
	us("linalg.modchol25x40_us", func() error { _, err := linalg.ModifiedCholeskyPrecision(u, 5, 1e-6); return err })
	a32 := spd(s, 32)
	us("linalg.symeig32_us", func() error { _, _, err := linalg.SymmetricEigen(a32); return err })
}

func (p *probeSet) obs() {
	net := p.dense.prob.Net
	o := net.Obs[len(net.Obs)/2]
	n := p.dense.p.members
	p.values["obs.perturb32_ns"] = 1e9 * medianTime(p.calls(2000), func() { obs.CenteredPerturbations(o, n, p.o.seed) })
	// ObsInBox is called once per candidate per grid point; time it over
	// every candidate of one sub-domain's expansion.
	box := p.dense.dec.Expansion(1, 0)
	cands := net.InBox(box)
	local := p.dense.prob.Cfg.Radius.LocalBox(p.dense.prob.Cfg.Mesh, box.X0+box.Width()/2, box.Y0+box.Height()/2)
	sweep := func() {
		for _, c := range cands {
			obs.ObsInBox(c, local)
		}
	}
	p.values["obs.inbox_ns"] = 1e9 * medianTime(p.calls(300), sweep) / float64(len(cands))
	allocs, _ := allocsOf(p.calls(100), sweep)
	p.values["obs.inbox_allocs"] = allocs / float64(len(cands))
}

// expansionBlock cuts the expansion of sub-domain (i, j) out of one level's
// full fields, as file reading and communication would deliver it.
func expansionBlock(w *realWorkload, level, i, j int) (*enkf.Block, grid.Box, error) {
	m := w.prob.Cfg.Mesh
	full := &enkf.Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: w.background[level]}
	exp := w.dec.Expansion(i, j)
	blk, err := full.SubBlock(exp)
	return blk, exp, err
}

func (p *probeSet) enkf() {
	// The local analysis at the centre of one dense sub-domain, given what
	// the engine gives it: the expansion block and its candidates.
	d := p.dense
	blk, exp, err := expansionBlock(d, 0, 1, 0)
	if err != nil {
		p.fail("enkf", err)
		return
	}
	cands := d.prob.Net.InBox(exp)
	sub := d.dec.SubDomain(1, 0)
	x, y := sub.X0+sub.Width()/2, sub.Y0+sub.Height()/2
	for _, s := range []struct {
		name   string
		solver enkf.Solver
	}{
		{"enkf.point_ensemble_us", enkf.SolverEnsembleSpace},
		{"enkf.point_modchol_us", enkf.SolverModifiedCholesky},
		{"enkf.point_etkf_us", enkf.SolverETKF},
	} {
		cfg := d.prob.Cfg
		cfg.Solver, cfg.Band, cfg.Ridge = s.solver, 2, 1e-6
		p.values[s.name] = 1e6 * p.seconds(s.name, p.calls(200), func() error {
			_, err := cfg.AnalyzePoint(blk, cands, x, y)
			return err
		})
	}
	allocs, bytes := allocsOf(p.calls(200), func() {
		_, err := d.prob.Cfg.AnalyzePoint(blk, cands, x, y)
		p.fail("enkf.point_allocs", err)
	})
	p.values["enkf.point_allocs"], p.values["enkf.point_alloc_kb"] = allocs, bytes/1e3
	p.values["enkf.box_points_per_s"] = float64(sub.Points()) / p.seconds("enkf.box_points_per_s", p.calls(7), func() error {
		_, err := d.prob.Cfg.AnalyzeBox(blk, cands, sub)
		return err
	})
	// The plain single-threaded run of the dense problem.
	p.values["enkf.serial_ref_s"] = p.seconds("enkf.serial_ref_s", p.calls(3), func() error {
		_, err := enkf.SerialReference(d.prob.Cfg, d.background[0], d.prob.Net)
		return err
	})

	// A stream grid point with no observation in its local box, and the
	// gather of stream's eight sub-domain results.
	s := p.stream
	sblk, sexp, err := expansionBlock(s, 0, 1, 0)
	if err != nil {
		p.fail("enkf", err)
		return
	}
	scands := s.prob.Nets[0].InBox(sexp)
	ssub := s.dec.SubDomain(1, 0)
	sx, sy := ssub.X0+ssub.Width()/2+1, ssub.Y0+ssub.Height()/2+2
	for _, c := range scands {
		if obs.ObsInBox(c, s.prob.Cfg.Radius.LocalBox(s.prob.Cfg.Mesh, sx, sy)) {
			p.fail("enkf.point_noobs_us", errors.New("the probed point has an observation in its local box"))
		}
	}
	p.values["enkf.point_noobs_us"] = 1e6 * p.seconds("enkf.point_noobs_us", p.calls(2000), func() error {
		_, err := s.prob.Cfg.AnalyzePoint(sblk, scands, sx, sy)
		return err
	})
	var blocks []*enkf.Block
	for j := 0; j < s.dec.NSdy; j++ {
		for i := 0; i < s.dec.NSdx; i++ {
			blocks = append(blocks, enkf.NewBlock(s.dec.SubDomain(i, j), s.p.members))
		}
	}
	p.values["enkf.assemble_ms"] = 1e3 * p.seconds("enkf.assemble_ms", p.calls(30), func() error {
		_, err := enkf.Assemble(s.prob.Cfg.Mesh, s.p.members, blocks)
		return err
	})
}

// ensio reads and writes the stream member files. The page cache is warm
// (the files were just written); megabytes are computed from the geometry.
func (p *probeSet) ensio() {
	s := p.stream
	n, levels := s.p.members, s.p.levels
	path := func(k int) string { return ensio.MemberPath(s.prob.Dir, k) }
	p.values["ensio.open_us"] = 1e6 * p.seconds("ensio.open_us", p.calls(300), func() error {
		mf, err := ensio.OpenMember(path(0))
		if err != nil {
			return err
		}
		return mf.Close()
	})

	files := make([]*ensio.MemberFile, n)
	for k := range files {
		mf, err := ensio.OpenMember(path(k))
		if err != nil {
			p.fail("ensio", err)
			return
		}
		defer mf.Close()
		files[k] = mf
	}
	mb := func(b grid.Box) float64 { return float64(n*levels*b.Points()) * 8 / 1e6 }
	// One stage's bar of the S-EnKF plan, and one rank's expansion block of
	// the P-EnKF plan, read from every member file.
	bar := s.compiled.IO[0].Stages[0].Read.Box
	p.values["ensio.bar_read_mbps"] = mb(bar) / p.seconds("ensio.bar_read_mbps", p.calls(30), func() error {
		for _, mf := range files {
			if _, err := mf.ReadBarLevels(bar.Y0, bar.Y1); err != nil {
				return err
			}
		}
		return nil
	})
	block := s.dec.Expansion(1, 0)
	seeks0 := files[0].Stats().Seeks
	if _, err := files[0].ReadBlockLevels(block); err != nil {
		p.fail("ensio.block_read_seeks", err)
	}
	p.values["ensio.block_read_seeks"] = float64(n * (files[0].Stats().Seeks - seeks0))
	p.values["ensio.block_read_mbps"] = mb(block) / p.seconds("ensio.block_read_mbps", p.calls(30), func() error {
		for _, mf := range files {
			if _, err := mf.ReadBlockLevels(block); err != nil {
				return err
			}
		}
		return nil
	})
	whole := grid.Box{X0: 0, X1: s.p.nx, Y0: 0, Y1: s.p.ny}
	p.values["ensio.verify_mbps"] = mb(whole) / p.seconds("ensio.verify_mbps", p.calls(5), func() error {
		for _, mf := range files {
			if err := mf.VerifyChecksum(); err != nil {
				return err
			}
		}
		return nil
	})

	// Writing includes the fsync of every member file.
	members := make([][][]float64, n)
	for k := range members {
		members[k] = make([][]float64, levels)
		for l := range members[k] {
			members[k][l] = s.background[l][k]
		}
	}
	out := filepath.Join(p.dir, "write")
	p.fail("ensio.write_mbps", os.MkdirAll(out, 0o755))
	p.values["ensio.write_mbps"] = mb(whole) / p.seconds("ensio.write_mbps", p.calls(3), func() error {
		_, err := ensio.WriteEnsembleLevels(out, s.prob.Cfg.Mesh, members)
		return err
	})
}

func (p *probeSet) mpi() {
	// Round trip of an 8 kB payload between two ranks.
	var rounds []float64
	p.fail("mpi.pingpong8k_us", runWorld(2, func(c *mpi.Comm) error {
		payload := make([]float64, 1024)
		for r := 0; r < p.calls(1000); r++ {
			if c.Rank() == 0 {
				t0 := time.Now()
				if err := c.Send(1, 0, nil, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, 1); err != nil {
					return err
				}
				rounds = append(rounds, time.Since(t0).Seconds())
			} else {
				m, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				if err := c.Send(0, 1, nil, m.Data); err != nil {
					return err
				}
			}
		}
		return nil
	}))
	p.values["mpi.pingpong8k_us"] = 1e6 * median(rounds)

	// A stream of 1 MiB messages, and the heap bytes the transport
	// allocates per payload byte while carrying it.
	const words = 1 << 17
	msgs := p.calls(64)
	payload := make([]float64, words)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p.fail("mpi.send1m_mbps", runWorld(2, func(c *mpi.Comm) error {
		for i := 0; i < msgs; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, i, nil, payload); err != nil {
					return err
				}
			} else if _, err := c.Recv(0, i); err != nil {
				return err
			}
		}
		return nil
	}))
	took := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	sent := float64(msgs * words * 8)
	p.values["mpi.send1m_mbps"] = sent / 1e6 / took
	p.values["mpi.send_alloc_bytes_per_byte"] = float64(m1.TotalAlloc-m0.TotalAlloc) / sent

	// Collectives over twelve ranks, the world size of dense and stream:
	// a barrier, and a gather of one sub-domain result per rank.
	var barriers, gathers []float64
	part := make([]float64, p.stream.p.members*p.stream.dec.PointsPerSubDomain())
	p.fail("mpi.barrier12_us", runWorld(12, func(c *mpi.Comm) error {
		for r := 0; r < p.calls(300); r++ {
			t0 := time.Now()
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				barriers = append(barriers, time.Since(t0).Seconds())
			}
		}
		for r := 0; r < p.calls(10); r++ {
			t0 := time.Now()
			if _, err := c.Gather(0, part); err != nil {
				return err
			}
			if c.Rank() == 0 {
				gathers = append(gathers, time.Since(t0).Seconds())
			}
		}
		return nil
	}))
	p.values["mpi.barrier12_us"] = 1e6 * median(barriers)
	p.values["mpi.gather12_ms"] = 1e3 * median(gathers)
}

func runWorld(n int, f func(c *mpi.Comm) error) error {
	w, err := mpi.NewWorld(n)
	if err != nil {
		return err
	}
	return w.Run(f)
}

// simMachine is the machine and processor count of the simcell workload.
func (p *probeSet) simMachine() *simWorkload {
	w, _ := newWorkload("simcell", p.o.smoke) // the name is known
	return w.(*simWorkload)
}

// plan compiles the S-EnKF plan the simcell workload tunes.
func (p *probeSet) plan() {
	sw := p.simMachine()
	spec, err := tunedSpec(sw, sw.np)
	if err != nil {
		p.fail("plan", err)
		return
	}
	var compiled *plan.Compiled
	compile := func() error {
		var err error
		compiled, err = plan.Compile(spec)
		return err
	}
	p.values["plan.compile_paper_ms"] = 1e3 * p.seconds("plan.compile_paper_ms", p.calls(20), compile)
	p.values["plan.compile_allocs"], _ = allocsOf(p.calls(5), func() { p.fail("plan.compile_allocs", compile()) })
	if compiled != nil {
		p.values["plan.expected_edges_ms"] = 1e3 * medianTime(p.calls(5), func() { plan.ExpectedEdges(compiled) })
	}
}

// tunedSpec is the S-EnKF spec the auto-tuner picks for np processors on the
// simulated machine's problem.
func tunedSpec(sw *simWorkload, np int) (plan.Spec, error) {
	pr := sw.cfg.P
	tuned, ok := pr.AutoTuneConstrained(np, 0.001, sw.tc)
	if !ok {
		return plan.Spec{}, fmt.Errorf("auto-tuner found no configuration for np=%d", np)
	}
	mesh, err := grid.NewMesh(pr.NX, pr.NY)
	if err != nil {
		return plan.Spec{}, err
	}
	dec, err := grid.NewDecomposition(mesh, tuned.Choice.NSdx, tuned.Choice.NSdy, grid.Radius{Xi: pr.Xi, Eta: pr.Eta})
	if err != nil {
		return plan.Spec{}, err
	}
	return plan.SEnKF(dec, pr.N, tuned.Choice.L, tuned.Choice.NCg), nil
}

// engines runs the other real engines on the same data: the two baselines
// and the resilient engine with no fault plan, which must cost what the
// plain engine costs once the two are folded.
func (p *probeSet) engines() {
	d, s := p.dense, p.stream
	n := p.calls(3)
	p.values["core.penkf_dense_op_s"] = p.seconds("core.penkf_dense_op_s", n, func() error {
		_, err := baseline.RunPEnKF(d.prob, d.dec)
		return err
	})
	p.values["core.lenkf_dense_op_s"] = p.seconds("core.lenkf_dense_op_s", n, func() error {
		_, err := baseline.RunLEnKF(d.prob, d.dec)
		return err
	})
	pl := core.Plan{Dec: d.dec, L: d.p.layers, NCg: d.p.ncg}
	p.values["core.resilient_dense_op_s"] = p.seconds("core.resilient_dense_op_s", n, func() error {
		_, err := core.RunSEnKFResilient(d.prob, pl, core.Resilience{})
		return err
	})
	ml := plan.MultiLevelProblem{Cfg: s.prob.Cfg, Dir: s.prob.Dir, Nets: s.prob.Nets}
	p.values["core.penkf_stream_op_s"] = p.seconds("core.penkf_stream_op_s", n, func() error {
		_, err := baseline.RunPEnKFMultiLevel(ml, s.dec)
		return err
	})
}

func (p *probeSet) simulator() {
	// The event engine alone: processes contending for a resource.
	const procs, rounds = 1000, 10
	events := float64(procs * rounds * 3) // acquire, sleep, release
	engine := func() error {
		env := sim.NewEnv()
		r := sim.NewResource(env, "disk", 4)
		for i := 0; i < procs; i++ {
			env.Go(fmt.Sprintf("p%d", i), func(pr *sim.Proc) {
				for j := 0; j < rounds; j++ {
					r.Acquire(pr)
					pr.Sleep(0.001)
					r.Release()
				}
			})
		}
		_, err := env.Run()
		return err
	}
	p.values["sim.events_per_s"] = events / p.seconds("sim.events_per_s", p.calls(7), engine)
	allocs, _ := allocsOf(p.calls(3), func() { p.fail("sim.allocs_per_event", engine()) })
	p.values["sim.allocs_per_event"] = allocs / events

	sw := p.simMachine()
	cfg, np := sw.cfg, sw.np
	// Concurrent bar reading of N files by n_cg groups of n_sdy readers:
	// every reader reads each file of its group once.
	const nsdy, ncg = 10, 6
	reads := float64(nsdy * cfg.P.N)
	p.values["parfs.reads_per_s"] = reads / p.seconds("parfs.reads_per_s", p.calls(7), func() error {
		_, err := schedule.ReadOnlyConcurrent(cfg, nsdy, ncg, cfg.P.N)
		return err
	})

	tuned, ok := cfg.P.AutoTuneConstrained(np, 0.001, sw.tc)
	nsdx, nsdyP, err := schedule.ChooseDecomposition(cfg.P, np)
	if !ok || err != nil {
		p.fail("schedule", fmt.Errorf("no configuration for np=%d: %v", np, err))
		return
	}
	var rs, rp schedule.Result
	n := p.calls(5)
	p.values["schedule.senkf_sim_s"] = p.seconds("schedule.senkf_sim_s", n, func() (err error) {
		rs, err = schedule.SimulateSEnKF(cfg, tuned.Choice)
		return err
	})
	p.values["schedule.penkf_sim_s"] = p.seconds("schedule.penkf_sim_s", n, func() (err error) {
		rp, err = schedule.SimulatePEnKF(cfg, nsdx, nsdyP)
		return err
	})
	p.values["schedule.lenkf_sim_s"] = p.seconds("schedule.lenkf_sim_s", n, func() error {
		_, err := schedule.SimulateLEnKF(cfg, nsdx, nsdyP)
		return err
	})
	p.values["schedule.virt_senkf_s"], p.values["schedule.virt_penkf_s"] = rs.Runtime, rp.Runtime
	if l := float64(tuned.Choice.L); l > 0 {
		// Result breakdowns are per-processor totals over L stages; the
		// model terms are per stage.
		d := cfg.P.Drift(tuned.Choice, costmodel.Measured{
			TRead: rs.IO.Read / l, TComm: rs.IO.Comm / l, TComp: rs.Compute.Compute / l})
		p.values["costmodel.drift_max_frac"] = d.MaxAbsRelErr()
	}

	// The paper's headline cell: P-EnKF over tuned S-EnKF at the largest
	// processor count of Figure 13.
	big := 12000
	if p.o.smoke {
		big = 180
	}
	var tunedBig costmodel.Tuned
	tune := func() error {
		if tunedBig, ok = cfg.P.AutoTuneConstrained(big, 0.001, sw.tc); !ok {
			return fmt.Errorf("no configuration for np=%d", big)
		}
		return nil
	}
	p.values["costmodel.autotune_12000_ms"] = 1e3 * p.seconds("costmodel.autotune_12000_ms", p.calls(20), tune)
	p.values["costmodel.autotune_allocs"], _ = allocsOf(p.calls(5), func() { p.fail("costmodel.autotune_allocs", tune()) })
	bx, by, err := schedule.ChooseDecomposition(cfg.P, big)
	if err != nil {
		p.fail("schedule.virt_speedup_12000", err)
		return
	}
	bs, err := schedule.SimulateSEnKF(cfg, tunedBig.Choice)
	p.fail("schedule.virt_speedup_12000", err)
	bp, err := schedule.SimulatePEnKF(cfg, bx, by)
	p.fail("schedule.virt_speedup_12000", err)
	if bs.Runtime > 0 {
		p.values["schedule.virt_speedup_12000"] = bp.Runtime / bs.Runtime
	}
}

// modelAndCheckpoint times one model step and one checkpoint written and
// loaded back, on the geometry of the cycle workload.
func (p *probeSet) modelAndCheckpoint() {
	w, _ := newWorkload("cycle", p.o.smoke) // the name is known
	cw := w.(*cycleWorkload)
	if err := cw.setup(p.o.seed, filepath.Join(p.dir, "cycle")); err != nil {
		p.fail("model", err)
		return
	}
	mesh := cw.cfg.Enkf.Mesh
	src, dst := cw.state.Truth, make([]float64, mesh.Points())
	step := p.seconds("model.step_mpts_per_s", p.calls(300), func() error {
		_, err := cw.cfg.Model.Step(dst, src)
		return err
	})
	p.values["model.step_mpts_per_s"] = float64(mesh.Points()) / 1e6 / step

	st := ckpt.State{Cycle: 1, Truth: cw.state.Truth, Ensemble: cw.state.Ensemble, Free: cw.state.Ensemble,
		Seed: p.o.seed}
	var path string
	p.values["ckpt.write_ms"] = 1e3 * p.seconds("ckpt.write_ms", p.calls(10), func() (err error) {
		path, err = ckpt.Write(cw.ckptDir, mesh, st)
		return err
	})
	p.values["ckpt.load_ms"] = 1e3 * p.seconds("ckpt.load_ms", p.calls(10), func() error {
		_, err := ckpt.Load(path)
		return err
	})
}

// observers measures what each observer of the program costs one stream
// op, against the same op with nothing attached. The configurations take
// turns, so that drift of the machine falls on all of them alike.
func (p *probeSet) observers() {
	s := p.stream
	type attach func(prob *plan.Problem) (detach func())
	configs := []struct {
		metric string
		attach attach
	}{
		{"", func(*plan.Problem) func() { return noop }},
		{"trace.overhead_frac", func(prob *plan.Problem) func() {
			prob.Tr = trace.New(nil, trace.NewBuffer())
			return noop
		}},
		{"monitor.overhead_frac", func(prob *plan.Problem) func() {
			mon := monitor.New(monitor.Options{})
			prob.Tr = trace.New(nil, mon.Tee(nil))
			prob.Obs = mon
			return mon.Close
		}},
		{"wire.overhead_frac", func(prob *plan.Problem) func() {
			prob.Msgs = wire.NewCollector()
			return noop
		}},
	}
	times := make([][]float64, len(configs))
	for round := 0; round < p.calls(7); round++ {
		for i, c := range configs {
			prob := s.prob
			detach := c.attach(&prob)
			t0 := time.Now()
			_, err := core.ExecutePlanLevels(prob, s.compiled)
			times[i] = append(times[i], time.Since(t0).Seconds())
			detach()
			p.fail("observers", err)
		}
	}
	base := median(times[0])
	for i, c := range configs[1:] {
		p.values[c.metric] = median(times[i+1])/base - 1
	}
}
