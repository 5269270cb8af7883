package main

// metricSpec names one reported metric. The same table drives the
// command's output, BENCHMARK.json (checked by the package test) and
// the -repeat/-compare verdicts.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median a metric may worsen by; end-to-end only
}

// endToEnd are the client-observed metrics, measured with tracing off.
var endToEnd = []metricSpec{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the attribution metrics of the traced run (layer =
// module name). They carry no bound: they explain a move of an
// end-to-end metric, they do not gate.
var perLayer = []metricSpec{
	{Name: "trace.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "resp.self_ms", Unit: "ms", Better: "lower"},
	{Name: "resp.reply_bytes", Unit: "B", Better: "lower"},
	{Name: "cypher.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.build_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.exec_self_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.rows", Unit: "count", Better: "lower"},
	{Name: "gdb.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gdb.hit_read_ms", Unit: "ms", Better: "lower"},
	{Name: "gdb.post_write_read_ms", Unit: "ms", Better: "lower"},
	{Name: "gdb.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gdb.journal.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gdb.journal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "store.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "store.cache.invalidations", Unit: "count", Better: "lower"},
	{Name: "batch.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "cfpq.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "cfpq.eval_share", Unit: "ratio", Better: "lower"},
	{Name: "cfpq.rounds", Unit: "count", Better: "lower"},
	{Name: "matrix.mul_ops", Unit: "count", Better: "lower"},
	{Name: "matrix.mul_nnz", Unit: "count", Better: "lower"},
	{Name: "matrix.add_ops", Unit: "count", Better: "lower"},
	{Name: "matrix.mul_ns_per_nnz", Unit: "ns", Better: "lower"},
}
