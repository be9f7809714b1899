package main

// metricDef declares a metric: its name, unit, which direction is better
// and, for an end-to-end metric, the relative worsening that counts as a
// regression. BENCHMARK.json carries the same two lists; a test keeps them
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a client or operator of matchd feels. Every workload
// reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"mb_per_s", "MB/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"register_p25_ms", "ms", "lower", 0.25},
}

// perLayer is what a traced run reports: the layer probes, which do not
// depend on the workload, and the traced workload's ladder (trace.*) and
// process footprint.
var perLayer = []metricDef{
	{Name: "dense.scan_ns_per_byte.small", Unit: "ns/B", Better: "lower"},
	{Name: "dense.scan_ns_per_byte.bulk", Unit: "ns/B", Better: "lower"},
	{Name: "dense.scan_allocs", Unit: "count", Better: "lower"},
	{Name: "dense.compile_ms.S", Unit: "ms", Better: "lower"},
	{Name: "dense.compile_ms.L", Unit: "ms", Better: "lower"},
	{Name: "dense.compile_ms.churn", Unit: "ms", Better: "lower"},
	{Name: "dense.table_bytes.S", Unit: "B", Better: "lower"},
	{Name: "dense.table_bytes.L", Unit: "B", Better: "lower"},
	{Name: "dense.table_bytes.churn", Unit: "B", Better: "lower"},
	{Name: "dense.states.S", Unit: "count", Better: "lower"},
	{Name: "dense.states.L", Unit: "count", Better: "lower"},
	{Name: "dense.states.churn", Unit: "count", Better: "lower"},
	{Name: "dense.restore_ms.L", Unit: "ms", Better: "lower"},
	{Name: "core.preprocess_ms.churn", Unit: "ms", Better: "lower"},
	{Name: "core.preprocess_ms.L", Unit: "ms", Better: "lower"},
	{Name: "core.preprocess_work", Unit: "count", Better: "lower"},
	{Name: "core.preprocess_depth", Unit: "count", Better: "lower"},
	{Name: "core.tree_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "core.check_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "core.match_work_per_byte", Unit: "count", Better: "lower"},
	{Name: "core.match_depth", Unit: "count", Better: "lower"},
	{Name: "core.parse_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "stream.match_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "stream.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "stream.max_resident_bytes", Unit: "B", Better: "lower"},
	{Name: "stream.segments", Unit: "count", Better: "lower"},
	{Name: "czsearch.ns_per_rep_byte.rep", Unit: "ns/B", Better: "lower"},
	{Name: "czsearch.ns_per_rep_byte.inc", Unit: "ns/B", Better: "lower"},
	{Name: "czsearch.touched_share.rep", Unit: "ratio", Better: "lower"},
	{Name: "czsearch.touched_share.inc", Unit: "ratio", Better: "lower"},
	{Name: "czsearch.memo_hits.rep", Unit: "count", Better: "higher"},
	{Name: "czsearch.memo_hits.inc", Unit: "count", Better: "higher"},
	{Name: "czsearch.speedup.rep", Unit: "ratio", Better: "higher"},
	{Name: "czsearch.speedup.inc", Unit: "ratio", Better: "higher"},
	{Name: "lz.decode_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "lz.compress_ms_per_mib", Unit: "ms", Better: "lower"},
	{Name: "lz.tokens_per_kib.rep", Unit: "count", Better: "lower"},
	{Name: "lz.tokens_per_kib.inc", Unit: "count", Better: "lower"},
	{Name: "persist.encode_ms.L", Unit: "ms", Better: "lower"},
	{Name: "persist.load_ms.L", Unit: "ms", Better: "lower"},
	{Name: "persist.bundle_bytes.L", Unit: "B", Better: "lower"},
	{Name: "pram.superstep_us", Unit: "us", Better: "lower"},
	{Name: "server.match_us_per_req.small", Unit: "us", Better: "lower"},
	{Name: "server.match_ms_p50_per_mib", Unit: "ms", Better: "lower"},
	{Name: "server.match_ms_mean_per_mib", Unit: "ms", Better: "lower"},
	{Name: "server.verify_share", Unit: "ratio", Better: "lower"},
	{Name: "server.handler_us_per_req.small", Unit: "us", Better: "lower"},
	{Name: "server.handler_allocs_per_req.small", Unit: "count", Better: "lower"},
	{Name: "server.framing_ms_per_mib", Unit: "ms", Better: "lower"},
	{Name: "server.handler_alloc_bytes_per_mib", Unit: "B", Better: "lower"},
	{Name: "matchd.edge_us_per_req", Unit: "us", Better: "lower"},
	{Name: "cluster.hop_us", Unit: "us", Better: "lower"},
	{Name: "matchd.start_ms", Unit: "ms", Better: "lower"},
	{Name: "matchd.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "matchd.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "matchd.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.requests", Unit: "count", Better: "higher"},
	{Name: "trace.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.edge_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.serve_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
}
