package main

// metricDef names one metric. This table is the program's side of
// BENCHMARK.json; the smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which the metric may worsen
}

// endToEnd is what a user of the program waits for and pays, per workload,
// measured with every tracer off.
//
// The times are read low in the distribution: the 5th percentile of the op's
// wall and CPU time, the fastest of the set-ups. The machine this was written
// on is a shared two-processor virtual machine, and a busy neighbour only ever
// adds time: over 20 s windows of one simcell process the median moved by 39%
// and the p90 by 40% within seven minutes, the p05 by 17%. The median, the
// p90, the throughput and the mean CPU time are printed by every run, but a
// bound of 25%, the widest there is, cannot hold them here. A change to the
// program moves the whole distribution, so the p05 shows it; the allocation
// counts repeat to five digits and carry a tight bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_p05", "s", "lower", 0.25},
	{"cpu_s_p05", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.02},
}

// perLayer is what the traced run reports. The first group comes from the
// spans of the traced workload (and is 0 for a layer the workload never
// enters); the rest are probes that time each layer's exported functions
// from outside, on the workloads' own inputs.
var perLayer = []metricDef{
	// Spans of the traced workload, per op. core.* are summed over ranks.
	{"core.read_s", "s", "lower", 0},
	{"core.comm_s", "s", "lower", 0},
	{"core.compute_s", "s", "lower", 0},
	{"core.wait_s", "s", "lower", 0},
	{"core.compute_share", "ratio", "higher", 0},
	{"core.messages_per_op", "count", "lower", 0},
	{"core.msg_mb_per_op", "MB", "lower", 0},
	{"trace.events_per_op", "count", "lower", 0},
	{"cycle.forecast_s", "s", "lower", 0},
	{"cycle.write_s", "s", "lower", 0},
	{"cycle.analysis_s", "s", "lower", 0},
	{"cycle.ckpt_s", "s", "lower", 0},
	{"simcell.autotune_s", "s", "lower", 0},
	{"simcell.senkf_sim_s", "s", "lower", 0},
	{"simcell.penkf_sim_s", "s", "lower", 0},
	{"bench.op_self_s", "s", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},

	// linalg kernels.
	{"linalg.cholesky64_us", "us", "lower", 0},
	{"linalg.cholsolve64x32_us", "us", "lower", 0},
	{"linalg.matmul64_us", "us", "lower", 0},
	{"linalg.aat64_us", "us", "lower", 0},
	{"linalg.modchol25x40_us", "us", "lower", 0},
	{"linalg.symeig32_us", "us", "lower", 0},

	// obs.
	{"obs.perturb32_ns", "ns", "lower", 0},
	{"obs.inbox_ns", "ns", "lower", 0},
	{"obs.inbox_allocs", "count", "lower", 0},

	// enkf: the local analysis on the dense inputs, the gather on stream's.
	{"enkf.point_ensemble_us", "us", "lower", 0},
	{"enkf.point_modchol_us", "us", "lower", 0},
	{"enkf.point_etkf_us", "us", "lower", 0},
	{"enkf.point_allocs", "count", "lower", 0},
	{"enkf.point_alloc_kb", "kB", "lower", 0},
	{"enkf.point_noobs_us", "us", "lower", 0},
	{"enkf.box_points_per_s", "1/s", "higher", 0},
	{"enkf.serial_ref_s", "s", "lower", 0},
	{"enkf.assemble_ms", "ms", "lower", 0},

	// ensio on the stream member files, page cache warm, bytes from geometry.
	{"ensio.open_us", "us", "lower", 0},
	{"ensio.bar_read_mbps", "MB/s", "higher", 0},
	{"ensio.block_read_mbps", "MB/s", "higher", 0},
	{"ensio.block_read_seeks", "count", "lower", 0},
	{"ensio.write_mbps", "MB/s", "higher", 0},
	{"ensio.verify_mbps", "MB/s", "higher", 0},

	// mpi.
	{"mpi.pingpong8k_us", "us", "lower", 0},
	{"mpi.send1m_mbps", "MB/s", "higher", 0},
	{"mpi.send_alloc_bytes_per_byte", "ratio", "lower", 0},
	{"mpi.barrier12_us", "us", "lower", 0},
	{"mpi.gather12_ms", "ms", "lower", 0},

	// plan.
	{"plan.compile_paper_ms", "ms", "lower", 0},
	{"plan.compile_allocs", "count", "lower", 0},
	{"plan.expected_edges_ms", "ms", "lower", 0},

	// core: the other engines on the same data.
	{"core.penkf_dense_op_s", "s", "lower", 0},
	{"core.lenkf_dense_op_s", "s", "lower", 0},
	{"core.resilient_dense_op_s", "s", "lower", 0},
	{"core.penkf_stream_op_s", "s", "lower", 0},

	// sim, parfs, schedule, costmodel at simcell's np and one np=12000 cell.
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"parfs.reads_per_s", "1/s", "higher", 0},
	{"schedule.senkf_sim_s", "s", "lower", 0},
	{"schedule.penkf_sim_s", "s", "lower", 0},
	{"schedule.lenkf_sim_s", "s", "lower", 0},
	{"schedule.virt_senkf_s", "s", "lower", 0},
	{"schedule.virt_penkf_s", "s", "lower", 0},
	{"schedule.virt_speedup_12000", "ratio", "higher", 0},
	{"costmodel.autotune_12000_ms", "ms", "lower", 0},
	{"costmodel.autotune_allocs", "count", "lower", 0},
	{"costmodel.drift_max_frac", "ratio", "lower", 0},

	// model, ckpt on the cycle geometry.
	{"model.step_mpts_per_s", "Mpt/s", "higher", 0},
	{"ckpt.write_ms", "ms", "lower", 0},
	{"ckpt.load_ms", "ms", "lower", 0},

	// What each observer costs one stream op, against nothing attached.
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"monitor.overhead_frac", "ratio", "lower", 0},
	{"wire.overhead_frac", "ratio", "lower", 0},
}
