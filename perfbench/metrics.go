package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions; metrics_test.go keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	// Bound is how far (as a share of the parent's median) an
	// end-to-end metric may worsen before a change is a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer
	// metric should move.
	Moves string
}

// endToEnd metrics come from untraced runs (--trace 0). Failures are
// the result line's "failed" out of "attempted"; they are not a metric
// here because a metric that reads 0 on every run has no spread.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_byte_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer metrics come from the traced run (--trace 1).
var perLayer = []metricDef{
	{Name: "server.overhead_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms and qps on hot_mixed; first_byte_p50_ms on stream_export"},
	{Name: "server.bytes_out_per_query", Unit: "B", Better: "lower", Moves: "qps on stream_export"},
	{Name: "server.self_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on hot_mixed (handler time outside the engine phases: JSON, admission, encode)"},
	{Name: "client.self_us", Unit: "us", Better: "lower", Moves: "nothing in the program: loopback transport and the client's own decode"},
	{Name: "admission.wait_p99_us", Unit: "us", Better: "lower", Moves: "latency_p99_ms on hot_mixed"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on hot_mixed; nothing on cold_scan"},
	{Name: "engine.compile_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on hot_mixed"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on hot_mixed"},
	{Name: "dmd.windows_computed_per_query", Unit: "count", Better: "lower", Moves: "must stay 0: otherwise setup_s work leaked into the timed window"},
	{Name: "exec.stage1_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on hot_mixed"},
	{Name: "exec.stage2_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on cold_scan and hot_mixed (T4)"},
	{Name: "exec.load_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms and qps on cold_scan; 0 on hot_mixed and stream_export"},
	{Name: "exec.chunks_loaded_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_ms and qps on cold_scan"},
	{Name: "exec.rows_loaded_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_ms and qps on cold_scan"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "qps on cold_scan"},
	{Name: "cache.evictions_per_query", Unit: "count", Better: "lower", Moves: "qps on cold_scan"},
	{Name: "mseed.chunk_decode_us", Unit: "us", Better: "lower", Moves: "exec.load_us and through it latency_p50_ms on cold_scan"},
	{Name: "registrar.chunk_build_us", Unit: "us", Better: "lower", Moves: "exec.load_us and through it latency_p50_ms on cold_scan"},
	{Name: "storage.allocs_per_query", Unit: "count", Better: "lower", Moves: "latency_p99_ms on hot_mixed"},
	{Name: "storage.alloc_bytes_per_query", Unit: "B", Better: "lower", Moves: "latency_p99_ms on hot_mixed; peak_heap_mb on stream_export"},
	{Name: "trace.qps_untraced", Unit: "1/s", Better: "higher", Moves: "the tracing overhead's base"},
	{Name: "trace.qps_traced", Unit: "1/s", Better: "higher", Moves: "the tracing overhead's numerator"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "1 - traced qps / untraced qps; the trust in every per-layer number"},
	{Name: "trace.phases_within_elapsed_ratio", Unit: "ratio", Better: "higher", Moves: "must stay 1: compile + stage1 + load + stage2 fit in elapsed_us"},
}

// unitOf is the unit of a listed metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("unlisted metric " + name)
}
