package main

// metricSpec declares one metric the benchmark emits. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// bench_test.go fails when the two disagree.
type metricSpec struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Kind says what the number measures: "host" time or memory of the
	// simulator, a "simulated" statistic of the modelled hardware, or an
	// exact host-side "count". Host and simulated time are never mixed in
	// one metric.
	Kind string
}

// endToEnd lists what a user of the simulator sees. fail_share, the
// eighth end-to-end number, is printed with the others but is not in
// this table: the driver contract reads failures from the result line's
// attempted/failed fields and forbids a metric whose value is always 0.
//
// The bounds are set from the spread observed over ten seeds on a shared
// two-core sandbox (README.md, "Observed spread"): host times drift by
// 10-15 % between runs there, and model-mix's makespan and allocation
// count move by about 10 % with the fault seed.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "allocs", Unit: "count/op", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.25, Kind: "simulated"},
	{Name: "noc_energy_pj", Unit: "pJ", Better: "lower", Bound: 0.1, Kind: "simulated"},
}

// perLayer lists the metrics of single modules, taken from the traced op.
// Every workload emits every name; a module the workload does not use
// reads 0.
var perLayer = []metricSpec{
	{Name: "sim.run_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "sim.ns_per_router_cycle", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "sim.ns_per_evaluation", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "sim.cycle_ns_p50", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "sim.cycle_ns_p99", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "sim.evaluated", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "sim.skipped", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "sim.skipped_share", Unit: "ratio", Better: "higher", Kind: "count"},
	{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher", Kind: "host"},
	{Name: "sim.shard_cpu_ratio", Unit: "ratio", Better: "lower", Kind: "host"},

	{Name: "router.buffer_writes", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "router.rc_computations", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "router.va_allocations", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "router.sa_grants", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "router.crossings", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "router.gather_uploads", Unit: "count", Better: "higher", Kind: "simulated"},
	{Name: "router.reduce_merges", Unit: "count", Better: "higher", Kind: "simulated"},
	{Name: "router.ns_per_crossing", Unit: "ns", Better: "lower", Kind: "host"},
	{Name: "link.flits", Unit: "count", Better: "lower", Kind: "simulated"},

	{Name: "nic.packets_injected", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "nic.flits_injected", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "nic.retransmits", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "nic.abandoned", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "nic.duplicates_suppressed", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "nic.piggyback_share", Unit: "ratio", Better: "higher", Kind: "simulated"},

	{Name: "flit.pool_misses", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "flit.pool_live_end", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "flit.pool_drops", Unit: "count", Better: "lower", Kind: "count"},

	{Name: "noc.build_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "noc.build_allocs", Unit: "count", Better: "lower", Kind: "host"},
	{Name: "noc.builds", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "noc.snapshot_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "noc.restore_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "noc.snapshot_bytes", Unit: "bytes", Better: "lower", Kind: "count"},
	{Name: "noc.hash_s", Unit: "s", Better: "lower", Kind: "host"},

	{Name: "traffic.tick_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "traffic.latency_mean_cycles", Unit: "cycles", Better: "lower", Kind: "simulated"},
	{Name: "traffic.latency_p99_cycles", Unit: "cycles", Better: "lower", Kind: "simulated"},
	{Name: "traffic.throughput", Unit: "pkt/node/cycle", Better: "higher", Kind: "simulated"},

	{Name: "core.run_layer_s_p50", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "core.run_layer_s_max", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "core.cells", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "core.key_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "core.latency_improv_pct_mean", Unit: "%", Better: "higher", Kind: "simulated"},
	{Name: "core.power_improv_pct_mean", Unit: "%", Better: "higher", Kind: "simulated"},

	{Name: "systolic.collection_share_ru", Unit: "ratio", Better: "lower", Kind: "simulated"},
	{Name: "systolic.collection_share_gather", Unit: "ratio", Better: "lower", Kind: "simulated"},
	{Name: "systolic.payload_errors", Unit: "count", Better: "lower", Kind: "simulated"},

	{Name: "analytic.table2_gap_pp", Unit: "pp", Better: "lower", Kind: "simulated"},
	{Name: "analytic.mean_hops_gap_pct", Unit: "%", Better: "lower", Kind: "simulated"},

	{Name: "experiments.table2_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fig7_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fig8_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fig9_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fig10_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fullalexnet_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.fullvgg16_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.render_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.serial_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "experiments.sweep_speedup", Unit: "ratio", Better: "higher", Kind: "host"},
	{Name: "experiments.cache_hits", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "experiments.cache_misses", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "experiments.cache_stale", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "experiments.cache_hit_share", Unit: "ratio", Better: "higher", Kind: "count"},
	{Name: "experiments.cache_bytes_read", Unit: "bytes", Better: "lower", Kind: "count"},

	{Name: "workload.tick_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "workload.makespan_cycles", Unit: "cycles", Better: "lower", Kind: "simulated"},
	{Name: "workload.maxmin_slowdown", Unit: "ratio", Better: "lower", Kind: "simulated"},
	{Name: "workload.jobs", Unit: "count", Better: "higher", Kind: "count"},

	{Name: "collective.round_cycles_mean", Unit: "cycles", Better: "lower", Kind: "simulated"},
	{Name: "collective.root_flits", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "collective.oracle_errors", Unit: "count", Better: "lower", Kind: "simulated"},

	{Name: "fault.flits_dropped", Unit: "count", Better: "lower", Kind: "simulated"},
	{Name: "fault.packets_corrupted", Unit: "count", Better: "lower", Kind: "simulated"},

	{Name: "telemetry.harvest_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "telemetry.export_csv_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "telemetry.export_trace_s", Unit: "s", Better: "lower", Kind: "host"},
	{Name: "telemetry.epochs", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "telemetry.events", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "telemetry.dropped_events", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "telemetry.csv_bytes", Unit: "bytes", Better: "lower", Kind: "count"},

	{Name: "power.compute_s", Unit: "s", Better: "lower", Kind: "host"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Kind: "host"},
	{Name: "bench.spans", Unit: "count", Better: "lower", Kind: "count"},
}
