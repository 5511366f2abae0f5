package main

// The metric and workload tables. They are the single source the run,
// the comparison and the README agree on; TestSpecMatchesBenchmarkJSON
// pins BENCHMARK.json to them.

// Metric sources: where a per-layer number comes from.
const (
	srcSpan    = "S" // wall-clock span recorded in this package around a layer's public functions
	srcProfile = "P" // CPU profile started here, folded by the leaf frame's package/file
	srcCount   = "C" // exact count read through a public accessor; repeats bit-for-bit
	srcDerived = "D" // ratio of the above
)

// metricDef names one metric. Bound is the share of the base median by
// which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Source string
}

// endToEnd are the metrics a user of the simulator sees: how long a
// fixed amount of simulation takes on the host and what it costs in
// memory. Simulated-time results are deliberately absent: they repeat
// exactly, the digests pin them, and the run fails if they move.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, one block per repo module.
var perLayer = []metricDef{
	// sim: the engine.
	{Name: "sim.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "sim.cycles", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "sim.cycles_per_s", Unit: "1/s", Better: "higher", Source: srcDerived},
	{Name: "sim.events_scheduled", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "sim.component_evals", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "sim.evals_per_cycle", Unit: "ratio", Better: "lower", Source: srcDerived},
	{Name: "sim.shards2_speedup", Unit: "ratio", Better: "higher", Source: srcSpan},
	// noc: routers, network interfaces and wires.
	{Name: "noc.router_self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "noc.ni_wire_self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "noc.build_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "noc.flit_hops", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "noc.flit_hops_per_s", Unit: "1/s", Better: "higher", Source: srcDerived},
	{Name: "noc.host_ns_per_flit_hop", Unit: "ns", Better: "lower", Source: srcDerived},
	{Name: "noc.packets_injected", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "noc.packets_ejected", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "noc.avg_packet_latency_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "noc.router_active_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "noc.router_vc_stall_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "noc.router_credit_stall_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "noc.ni_backpressure_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	// cache: L1/L2/directory and the memory controllers.
	{Name: "cache.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "cache.build_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "cache.l1_hit_rate", Unit: "ratio", Better: "higher", Source: srcCount},
	{Name: "cache.l2_hit_rate", Unit: "ratio", Better: "higher", Source: srcCount},
	{Name: "cache.mshr_allocs", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "cache.miss_cycles", Unit: "cycles", Better: "lower", Source: srcCount},
	// cpu: the CMP cores and their reference streams.
	{Name: "cpu.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "cpu.build_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "cpu.run_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "cpu.instr_retired", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "cpu.stall_cycles", Unit: "cycles", Better: "lower", Source: srcCount},
	// core: RCUs and the CPM.
	{Name: "core.rcu_self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "core.cpm_self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "core.build_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "core.run_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "core.instr_executed", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "core.tokens_captured", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "core.tokens_offloaded", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "core.cpm_congested_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "core.rcu_exec_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "core.rcu_operand_wait_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "core.cpm_issue_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "core.cpm_throttled_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	// compiler: dataflow graph construction and lowering.
	{Name: "compiler.compile_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "compiler.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "compiler.entries", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "compiler.cache_hits", Unit: "count", Better: "higher", Source: srcCount},
	{Name: "compiler.cache_misses", Unit: "count", Better: "lower", Source: srcCount},
	// checkpoint: Take/Restore/Pool and every layer's snapshot.go.
	{Name: "checkpoint.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "checkpoint.take_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "checkpoint.restore_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "checkpoint.fork_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "checkpoint.restore_mb", Unit: "MB", Better: "lower", Source: srcSpan},
	{Name: "checkpoint.pool_hits", Unit: "count", Better: "higher", Source: srcCount},
	{Name: "checkpoint.pool_misses", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "checkpoint.forks", Unit: "count", Better: "lower", Source: srcCount},
	{Name: "checkpoint.pool_fork_avg_ns", Unit: "ns", Better: "lower", Source: srcSpan},
	// experiments: the figure runners and the power model.
	{Name: "experiments.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "experiments.run_s", Unit: "s", Better: "lower", Source: srcSpan},
	{Name: "experiments.cells_per_s", Unit: "1/s", Better: "higher", Source: srcDerived},
	{Name: "experiments.warm_speedup", Unit: "ratio", Better: "higher", Source: srcSpan},
	{Name: "experiments.j2_speedup", Unit: "ratio", Better: "higher", Source: srcSpan},
	{Name: "experiments.anchor_err_pct", Unit: "%", Better: "lower", Source: srcCount},
	// obs: stats, trace and attrib.
	{Name: "obs.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Source: srcSpan},
	{Name: "obs.profile_overhead_pct", Unit: "%", Better: "lower", Source: srcSpan},
	// runtime: allocator, GC, scheduler; other: frames of no layer.
	{Name: "runtime.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Source: srcSpan},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Source: srcSpan},
	{Name: "other.self_s", Unit: "s", Better: "lower", Source: srcProfile},
	// host: the noise guard's inputs.
	{Name: "host.calib_spin_ns", Unit: "ns", Better: "lower", Source: srcSpan},
	{Name: "host.calib_spread_pct", Unit: "%", Better: "lower", Source: srcSpan},
	{Name: "host.nproc", Unit: "count", Better: "higher", Source: srcCount},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Source: srcCount},
	// model: simulated results, exact, the digests' inputs.
	{Name: "model.kernel_cycles_total", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "model.cmp_runtime_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "model.cmp_impact_pct", Unit: "%", Better: "lower", Source: srcCount},
	{Name: "model.kernel_slowdown_pct", Unit: "%", Better: "lower", Source: srcCount},
	{Name: "model.sat_avg_latency_cy", Unit: "cycles", Better: "lower", Source: srcCount},
	{Name: "model.sat_throughput", Unit: "ratio", Better: "higher", Source: srcCount},
	{Name: "model.pareto_cells", Unit: "count", Better: "higher", Source: srcCount},
}

// layers are the CPU-profile fold's buckets; each has a <layer>_self_s
// or <layer>.self_s metric, and together they cover every sample.
var layers = []string{
	"sim", "noc.router", "noc.ni_wire", "cache", "cpu", "core.rcu", "core.cpm",
	"compiler", "checkpoint", "experiments", "obs", "runtime", "other",
}

// selfMetric names the per-layer metric of one profile bucket.
func selfMetric(layer string) string {
	switch layer {
	case "noc.router", "noc.ni_wire", "core.rcu", "core.cpm":
		return layer + "_self_s"
	}
	return layer + ".self_s"
}

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 2020

// defaultSeconds is how long an untraced run measures; BENCHMARK.json
// gives the driver the same number as run_seconds.
const defaultSeconds = 15
