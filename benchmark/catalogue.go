package main

// metricDef is one row of the catalogue. BENCHMARK.json at the repository
// root declares the same names, units and bounds; bench_test.go fails
// if the two drift apart or the program emits anything undeclared.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd metrics come from untraced passes, one value per workload.
// Every metric is defined on every workload and is never zero; see
// README.md for the definitions. Timing bounds are as wide as the contract
// allows because this shared VM switches, for seconds or for many minutes,
// between two speeds a factor of 1.5 apart (a bare spin loop shows it);
// counts repeat within 1%.
var endToEnd = []metricDef{
	{name: "ns_per_cell", unit: "ns", better: "lower", bound: 0.25},
	{name: "cpu_ns_per_cell", unit: "ns", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_cell", unit: "B", better: "lower", bound: 0.05},
	{name: "bytes_per_cell", unit: "B", better: "lower", bound: 0.05},
	{name: "job_ms_p50", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer metrics come from the traced run: spans around the three
// interfaces the engine calls out through, registry snapshots, Stats, the
// cost ladder and direct calls into layers with no injection point. The
// name's prefix is the layer (module); README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	{name: "apps.compute_ns_per_cell", unit: "ns", better: "lower"},

	{name: "dag.deps_ns_per_call", unit: "ns", better: "lower"},
	{name: "dag.deps_calls_per_cell", unit: "count", better: "lower"},
	{name: "dag.antideps_ns_per_call", unit: "ns", better: "lower"},
	{name: "dag.antideps_calls_per_cell", unit: "count", better: "lower"},
	{name: "dag.quotient_check_s", unit: "s", better: "lower"},

	{name: "dist.place_offset_ns", unit: "ns", better: "lower"},

	{name: "distarray.new_chunk_ns_per_cell", unit: "ns", better: "lower"},
	{name: "distarray.init_indegrees_ns_per_cell", unit: "ns", better: "lower"},
	{name: "distarray.activate_tiles_ns_per_cell", unit: "ns", better: "lower"},
	{name: "distarray.decrement_ns", unit: "ns", better: "lower"},
	{name: "distarray.rebuild_ns_per_cell", unit: "ns", better: "lower"},
	{name: "distarray.recomputed_cells", unit: "count", better: "lower"},
	{name: "distarray.recovery_s", unit: "s", better: "lower"},
	{name: "distarray.recovery_pause_s", unit: "s", better: "lower"},
	{name: "distarray.recovery_rebuild_s", unit: "s", better: "lower"},
	{name: "distarray.recovery_restore_s", unit: "s", better: "lower"},
	{name: "distarray.recovery_replay_s", unit: "s", better: "lower"},
	{name: "distarray.recovery_resume_s", unit: "s", better: "lower"},

	{name: "sched.pick_tile_ns", unit: "ns", better: "lower"},
	{name: "sched.tiles_per_kcell", unit: "count", better: "lower"},
	{name: "sched.deque_parks_per_ktile", unit: "count", better: "lower"},

	{name: "vcache.get_ns", unit: "ns", better: "lower"},
	{name: "vcache.put_ns", unit: "ns", better: "lower"},
	{name: "vcache.put_pushed_ns_per_value", unit: "ns", better: "lower"},
	{name: "vcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "vcache.push_use_ratio", unit: "ratio", better: "higher"},
	{name: "vcache.evictions_per_kcell", unit: "count", better: "lower"},

	{name: "codec.encode_ns_per_value", unit: "ns", better: "lower"},
	{name: "codec.decode_ns_per_value", unit: "ns", better: "lower"},
	{name: "codec.calls_per_cell", unit: "count", better: "lower"},

	{name: "core.self_cpu_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.allocs_per_cell", unit: "count", better: "lower"},
	{name: "core.msgs_per_kcell", unit: "count", better: "lower"},
	{name: "core.fetch_calls_per_kcell", unit: "count", better: "lower"},
	{name: "core.agg_batches_per_kcell", unit: "count", better: "lower"},
	{name: "core.decrs_per_batch", unit: "count", better: "higher"},
	{name: "core.values_pushed_per_cell", unit: "count", better: "lower"},
	{name: "core.retries", unit: "count", better: "lower"},
	{name: "core.dedup_hits", unit: "count", better: "lower"},
	{name: "core.cluster_build_ms", unit: "ms", better: "lower"},
	{name: "core.cluster_close_ms", unit: "ms", better: "lower"},
	{name: "core.job_queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "core.job_ms_p99", unit: "ms", better: "lower"},
	{name: "core.setup_cold_s", unit: "s", better: "lower"},
	{name: "core.cold_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.ladder_1p1t_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.ladder_1p1t_tile1_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.ladder_reliable_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.ladder_tcp_direct_ns_per_cell", unit: "ns", better: "lower"},

	{name: "transport.local_call_ns", unit: "ns", better: "lower"},
	{name: "transport.local_send_ns", unit: "ns", better: "lower"},
	{name: "transport.tcp_call_rtt_us_p50", unit: "us", better: "lower"},
	{name: "transport.tcp_call_rtt_us_p99", unit: "us", better: "lower"},
	{name: "transport.tcp_send_msgs_per_s", unit: "1/s", better: "higher"},
	{name: "transport.tcp_send_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "transport.wire_bytes_per_cell", unit: "B", better: "lower"},
	{name: "transport.frames_per_write", unit: "count", better: "higher"},
	{name: "transport.compress_ratio", unit: "ratio", better: "higher"},
	{name: "transport.send_errors", unit: "count", better: "lower"},

	{name: "metrics.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.ns_per_cell_p75", unit: "ns", better: "lower"},

	{name: "native.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "native.vertex_ns_per_cell", unit: "ns", better: "lower"},
	{name: "native.strip_ns_per_cell", unit: "ns", better: "lower"},

	{name: "workload.gen_s", unit: "s", better: "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}
