package main

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names with direction and bound; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"modeled_s", "s"},
	{"modeled_op_p50_ms", "ms"},
	{"modeled_op_p98_ms", "ms"},
	{"host_ops_per_s", "ops/s"},
	{"host_op_p50_ms", "ms"},
	{"host_allocs_per_op", "count"},
	{"host_alloc_KB_per_op", "KB"},
}

// perLayer metrics come from the traced run (-trace 1): exact counters
// from the program's public accessors, busy-interval unions of the
// recorder's spans, and the layer drivers. README.md says which
// end-to-end metric each should move.
var perLayer = []metricDef{
	{"sim.dispatches_per_op", "count"},
	{"sim.spawns_per_op", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.host_ns_per_event_2p", "ns"},

	{"device.requests_per_op", "count"},
	{"device.bytes_per_op", "B"},
	{"device.seeks_per_op", "count"},
	{"device.seek_cyls_per_op", "count"},
	{"device.merged_per_op", "count"},
	{"device.busy_s", "s"},
	{"device.wait_s", "s"},
	{"device.util", "ratio"},
	{"device.queue_peak", "count"},
	{"device.host_ns_per_request", "ns"},

	{"blockio.batches_per_op", "count"},
	{"blockio.runs_per_op", "count"},
	{"blockio.bytes_per_op", "B"},
	{"blockio.useful_byte_frac", "ratio"},
	{"blockio.busy_s", "s"},
	{"blockio.host_us_per_mapvec", "us"},
	{"blockio.host_us_per_plan", "us"},

	{"core.records_per_op", "count"},
	{"core.cache_hit_frac", "ratio"},
	{"core.host_ns_per_record", "ns"},

	{"mpp.msgs_per_op", "count"},
	{"mpp.bytes_per_op", "B"},
	{"mpp.exchange_busy_s", "s"},
	{"mpp.pool_wait_s", "s"},
	{"mpp.host_us_per_round", "us"},

	{"collective.exchange_s", "s"},
	{"collective.access_s", "s"},
	{"collective.overlap_s", "s"},
	{"collective.overlap_frac", "ratio"},
	{"collective.bytes_moved_per_op", "B"},
	{"collective.local_frac", "ratio"},
	{"collective.plan_hit_frac", "ratio"},
	{"collective.route_two-phase_frac", "ratio"},
	{"collective.route_sieved_frac", "ratio"},
	{"collective.route_vectored_frac", "ratio"},
	{"collective.host_ms_first_op", "ms"},
	{"collective.host_ms_steady_op", "ms"},
	{"collective.host_plan_share", "ratio"},

	{"ioserver.requests_per_op", "count"},
	{"ioserver.wait_s", "s"},
	{"ioserver.service_s", "s"},
	{"ioserver.busy_frac", "ratio"},
	{"ioserver.victim_p98_ms", "ms"},
	{"ioserver.bully_p98_ms", "ms"},
	{"ioserver.host_us_per_request", "us"},

	{"probe.spans_per_op", "count"},
	{"probe.overhead_frac", "ratio"},

	{"host.op_p98_ms", "ms"},
	{"host.gc_cycles", "count"},
	{"host.gc_pause_ms", "ms"},
	{"host.heap_peak_MB", "MB"},
	{"host.verify_frac", "ratio"},
	{"host.speed", "ratio"},
	{"host.gomaxprocs", "count"},
}
