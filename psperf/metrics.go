package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics an untraced run prints, on every workload.
// What "read" and "write" mean on each workload is in README.md. The
// read tail latency is in the report line but not here: on a shared
// 2-vCPU machine its spread across runs reached a third of its median,
// wider than any bound a regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_mb_s", "MB/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"write_mb_s", "MB/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"storage_overhead", "ratio", "lower", 0.2},
	{"ok_ratio", "ratio", "higher", 0.1},
	{"rss_peak_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "gateway.get_p50_us", unit: "us", better: "lower"},
	{name: "gateway.first_byte_p50_us", unit: "us", better: "lower"},
	{name: "gateway.self_us", unit: "us", better: "lower"},
	{name: "peerstripe.open_us", unit: "us", better: "lower"},
	{name: "peerstripe.read_at_us", unit: "us", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.decodes_per_op", unit: "count", better: "lower"},
	{name: "cache.evictions_per_op", unit: "count", better: "lower"},
	{name: "client.store_p50_ms", unit: "ms", better: "lower"},
	{name: "client.fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "client.load_cat_us", unit: "us", better: "lower"},
	{name: "client.hedge_fires_per_op", unit: "count", better: "lower"},
	{name: "client.probe_rejects", unit: "count", better: "lower"},
	{name: "wire.calls_per_op", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.fetch", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.store", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.storewin", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.fetchstream", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.getcapb", unit: "count", better: "lower"},
	{name: "wire.calls_per_op.delete", unit: "count", better: "lower"},
	{name: "wire.call_errors_per_op", unit: "count", better: "lower"},
	{name: "wire.call_p50_us.fetch", unit: "us", better: "lower"},
	{name: "wire.bytes_out_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wire.bytes_in_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wire.dials", unit: "count", better: "lower"},
	{name: "wire.retries", unit: "count", better: "lower"},
	{name: "server.busy_ms_per_op", unit: "ms", better: "lower"},
	{name: "server.handle_p50_us", unit: "us", better: "lower"},
	{name: "server.ops_per_op", unit: "count", better: "lower"},
	{name: "server.op_errors_per_op", unit: "count", better: "lower"},
	{name: "core.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "erasure.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "erasure.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "erasure.reconstruct_mb_s", unit: "MB/s", better: "higher"},
	{name: "repair.bytes_per_lost_byte", unit: "ratio", better: "lower"},
	{name: "repair.chunks_lost_per_kill", unit: "count", better: "lower"},
	{name: "placement.colocated_chunk_share", unit: "ratio", better: "lower"},
	{name: "storage.max_node_share", unit: "ratio", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.alloc_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "process.cpu_s_per_op", unit: "s", better: "lower"},
	{name: "process.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "trace.read_p50_overhead", unit: "ratio", better: "lower"},
	{name: "trace.read_mb_s_overhead", unit: "ratio", better: "lower"},
}
