package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are the metrics a user of the system sees, reported with the
// benchmark's tracing off. The wall-clock ones (setup_s, sim_vops_per_s,
// allocs_per_vop, heap_peak_mb) are medians over the run's rounds, and for
// sim_vops_per_s over the rounds' window slices; the virtual ones are fixed
// by the seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_vops_per_s", "1/s", "higher"},
	{"allocs_per_vop", "count", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"vops_per_s", "1/s", "higher"},
	{"vlat_p50_ms", "ms", "lower"},
	{"vlat_p99_ms", "ms", "lower"},
	{"vlat_p999_ms", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, better})
		}
	}
	// sim kernel and simnet microprobes.
	for _, p := range []string{"sim.spawn_exit", "sim.mailbox_pingpong", "sim.sleep_wake", "sim.recv_timeout", "simnet.send"} {
		add("ns", "lower", p+"_ns")
		add("count", "lower", p+"_allocs")
	}
	// Host CPU share per package.
	for _, b := range cpuBuckets {
		add("%", "lower", "cpu."+b)
	}
	// simnet: traffic per operation.
	add("count", "lower", "net.msgs_per_vop")
	add("B", "lower", "net.bytes_per_vop", "net.cross_az_bytes_per_vop")
	// Critical-path means per operation.
	for _, c := range cpOrder {
		add("ms", "lower", cpNames[c])
	}
	// namenode.
	add("ratio", "higher", "namenode.resolve_cache.hit_frac")
	add("ratio", "lower", "namenode.resolve_cache.fallback_frac", "namenode.util")
	// ndb.
	add("count", "lower", "ndb.commit.trains_per_vop")
	add("count", "higher", "ndb.commit.rows_per_train", "ndb.batch.rows_per_read")
	add("ms", "lower", "ndb.lock_wait_ms_per_vop")
	add("count", "lower", "ndb.lock_blocks_per_kvop")
	add("ratio", "higher", "ndb.tc_select.local_frac")
	for _, t := range threadTypes {
		add("ratio", "lower", "ndb.util."+t.String())
	}
	// shard.
	add("ratio", "lower", "shard.cross_frac")
	add("ms", "lower", "shard.cross_commit_ms_mean")
	add("count", "lower", "shard.cross_aborts", "shard.cross_indeterminate")
	// Client boundary.
	for _, op := range clientOps {
		key := "client." + op.String()
		add("count", "higher", key+".count")
		add("ms", "lower", key+".p50_ms", key+".p99_ms")
	}
	add("ratio", "lower", "client.outcome_err_frac", "failed_frac")
	// Instrumentation.
	add("count", "lower", "trace.sink_dropped")
	add("ratio", "lower", "trace.overhead_frac")
	return out
}
