package main

// metricDef is one line of the ledger. BENCHMARK.json repeats these lists
// (a test keeps the two equal); the bound of each end-to-end metric lives
// there alone.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// The gated metrics are the ones that repeat on a shared box: set-up time
// (the contract requires it), memory, and the allocation counts. Throughput
// and latency move 20 to 50 % with the host's load, whatever the program
// does, so they are reported with the layers, ungated; see the README.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
	{"allocs_per_row", "count", false},
	{"alloc_bytes_per_row", "B", false},
}

var perLayer = []metricDef{
	{"rows_per_s", "1/s", true},
	{"p50_ms", "ms", false},
	{"p99_ms", "ms", false},
	{"gbt.flat_ns_per_row", "ns", false},
	{"uq.ensemble_ns_per_row", "ns", false},
	{"serve.predict_ns_per_row", "ns", false},
	{"serve.predict_self_ns_per_row", "ns", false},
	{"serve.handler_ns_per_row", "ns", false},
	{"serve.codec_self_ns_per_row", "ns", false},
	{"serve.http_ns_per_row", "ns", false},
	{"serve.transport_self_ns_per_row", "ns", false},
	{"serve.stage.cache_lookup_ns_per_row", "ns", false},
	{"serve.stage.queue_wait_ns_per_row", "ns", false},
	{"serve.stage.wave_assemble_ns_per_row", "ns", false},
	{"serve.stage.evaluate_ns_per_row", "ns", false},
	{"serve.stage.guard_ns_per_row", "ns", false},
	{"serve.stage.finalize_ns_per_row", "ns", false},
	{"serve.stage.observe_ns_per_row", "ns", false},
	{"serve.stage.unattributed_ns_per_row", "ns", false},
	{"serve.queue_wait_p99_ms", "ms", false},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.rows_per_eval_batch", "count", true},
	{"serve.lone_wave_share", "ratio", false},
	{"fleet.route_local_ns_per_row", "ns", false},
	{"fleet.route_self_ns_per_row", "ns", false},
	{"fleet.route_remote_ns_per_row", "ns", false},
	{"fleet.hop_self_ns_per_row", "ns", false},
	{"fleet.http_ns_per_row", "ns", false},
	{"fleet.replicas_per_request", "count", false},
	{"fleet.row_skew", "ratio", false},
	{"fleet.failovers", "count", false},
	{"obs.trace_overhead_ns_per_row", "ns", false},
	{"obs.scrape_ms", "ms", false},
	{"obs.router_scrape_ms", "ms", false},
	{"resilience.gate_ns_per_request", "ns", false},
	{"setup.load_registry_s", "s", false},
	{"setup.compile_flat_s", "s", false},
	{"setup.first_predict_s", "s", false},
	{"proc.cpu_us_per_row", "us", false},
	{"go.gc_cycles", "count", false},
	{"go.gc_pause_ms", "ms", false},
	{"bench.client_cpu_share", "ratio", false},
	{"bench.window_spread", "ratio", false},
	{"bench.machine_slowdown", "ratio", false},
	{"bench.window_samples_min", "count", true},
	{"bench.verified_share", "ratio", true},
	{"bench.tracing_overhead", "ratio", false},
	{"ledger.evaluate_gap_share", "ratio", false},
}
