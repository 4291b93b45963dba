package main

// The metric and workload catalogue. BENCHMARK.json at the repository
// root carries the same names (bench_test.go holds the two in step);
// later changes cite metrics and workloads by these names and edit
// nothing under bench/.

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of the overlay sees. Every workload reports
// every one of them (the driver's contract), so each has a per-workload
// reading, spelled out in README.md: on link_churn a "hop" is one link
// cycle and latency is link set-up time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_MBps", "MiB/s", "higher"},
	{"hops_per_s", "1/s", "higher"},
	{"allocs_per_hop", "count", "lower"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p90_us", "us", "lower"},
}

// perLayer lists the single-layer metrics of the traced run, in the
// order they are printed: micro rows (layer = Go package name), traced
// rows, engine snapshot rows, derived rows, and the benchmark's own
// validity rows.
var perLayer = []metricDef{
	// Micro rows: public functions timed directly, fixed op counts.
	{"message.header_render_ns", "ns", "lower"},
	{"message.decode_5k_ns", "ns", "lower"},
	{"message.decode_64_ns", "ns", "lower"},
	{"message.read_5k_ns", "ns", "lower"},
	{"message.pool_get_release_ns", "ns", "lower"},
	{"message.dgram_frame_ns", "ns", "lower"},
	{"message.reassemble_5frag_ns", "ns", "lower"},
	{"queue.push_pop_ns", "ns", "lower"},
	{"queue.batch32_ns_per_msg", "ns", "lower"},
	{"queue.handoff_ns_per_msg", "ns", "lower"},
	{"queue.handoff1_ns", "ns", "lower"},
	{"queue.mpsc_ns", "ns", "lower"},
	{"bandwidth.wait_unshaped_ns", "ns", "lower"},
	{"vnet.pipe_MBps_5k", "MiB/s", "higher"},
	{"vnet.pipe_ns_per_write_64", "ns", "lower"},
	{"vnet.writebuffers_ns_per_msg", "ns", "lower"},
	{"vnet.dgram_ns_per_pkt", "ns", "lower"},
	{"vnet.dial_accept_us", "us", "lower"},
	{"admission.admit_ns", "ns", "lower"},
	{"admission.admit_dgram_ns", "ns", "lower"},
	{"protocol.report_codec_ns", "ns", "lower"},
	{"metrics.hist_observe_ns", "ns", "lower"},
	{"trace.emit_ns", "ns", "lower"},
	// Traced rows: wrappers at the Algorithm and Transport seams.
	{"multicast.process_ns", "ns", "lower"},
	{"engine.hop_transit_p50_us", "us", "lower"},
	{"engine.hop_transit_p90_us", "us", "lower"},
	{"engine.write_calls_per_msg", "ratio", "lower"},
	{"engine.read_calls_per_msg", "ratio", "lower"},
	{"engine.bytes_per_read", "B", "higher"},
	{"engine.write_ns_per_msg", "ns", "lower"},
	// Snapshot rows: Engine.Snapshot() and Counters(), merged over nodes.
	{"engine.switch_batch_p50", "count", "higher"},
	{"engine.send_batch_p50", "count", "higher"},
	{"engine.queue_delay_p50_us", "us", "lower"},
	{"engine.queue_delay_p99_us", "us", "lower"},
	{"engine.handoff_peak", "count", "lower"},
	{"engine.buffered_peak_KB", "KiB", "lower"},
	{"engine.msgs_shed", "count", "lower"},
	{"engine.msgs_dropped", "count", "lower"},
	{"engine.dgram_refused", "count", "lower"},
	{"engine.conns_shed", "count", "lower"},
	{"engine.handshakes_failed", "count", "lower"},
	// Derived rows: the "layers sum to the per-hop cost" check.
	{"engine.self_us_per_hop", "us", "lower"},
	{"bench.explained_frac", "ratio", "higher"},
	// Validity of the open-loop numbers and of the traced run.
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.lat_p99_us", "us", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.heap_peak_MB", "MiB", "lower"},
	// End-to-end readings that cannot carry a relative bound (too noisy,
	// constant, or defined on some workloads only); zero where they do not
	// apply. The peak rows are the back-to-back reading of the two stream
	// chains.
	{"peak_goodput_MBps", "MiB/s", "higher"},
	{"peak_hops_per_s", "1/s", "higher"},
	{"peak_cpu_us_per_hop", "us", "lower"},
	{"cpu_us_per_hop", "us", "lower"},
	{"delivered_frac", "ratio", "higher"},
	{"links_per_s", "1/s", "higher"},
	{"link_setup_p50_ms", "ms", "lower"},
	{"cpu_us_per_link", "us", "lower"},
}
