package main

// metricDef names one reported metric and its unit. The two lists mirror
// BENCHMARK.json's end_to_end and per_layer entries (a test pins them).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced runs' metrics: what a device or an operator of
// the daemon sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"cpu_us_per_frame", "us"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer that does no work on a
// workload reports 0 there. The first group are end-to-end figures that
// cannot carry a bound: ack latency, which wake-ups and CPU steal on a
// shared host set; fault handling, which only fault-ladder has; and
// failed_frac, 0 on a correct run. The traced.* group is the traced run's
// own view of the gated figures, so traced minus untraced is the
// instrumentation overhead.
var perLayer = []metricDef{
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"detect_p50_ms", "ms"},
	{"detect_p99_ms", "ms"},
	{"recover_p50_ms", "ms"},
	{"recover_p99_ms", "ms"},
	{"failed_frac", "1"},
	{"traced.frames_per_s", "1/s"},
	{"traced.cpu_us_per_frame", "us"},

	{"wire.server_reads_per_frame", "count"},
	{"wire.server_writes_per_frame", "count"},
	{"wire.bytes_in_per_frame", "B"},
	{"wire.client_send_us_per_frame", "us"},
	{"wire.handshake_p50_ms", "ms"},

	{"fleet.ingest_dispatch_p50_us", "us"},
	{"fleet.ingest_dispatch_p99_us", "us"},
	{"fleet.queue_wait_p99_us", "us"},
	{"core.monitor_step_p50_us", "us"},
	{"fleet.pressure_max", "1"},
	{"fleet.shed_frac", "1"},
	{"fleet.credit_grants_per_kframe", "count"},
	{"fleet.credit_stall_frac", "1"},
	{"fleet.replay_s", "s"},
	{"fleet.replay_frames", "count"},

	{"journal.append_p50_us", "us"},
	{"journal.append_p99_us", "us"},
	{"journal.appends_per_sync", "count"},
	{"journal.bytes_per_frame", "B"},
	{"journal.checkpoint_ms", "ms"},
	{"journal.recover_s", "s"},

	{"control.decide_p50_us", "us"},
	{"control.push_p50_us", "us"},
	{"control.ack_rtt_p50_ms", "ms"},
	{"control.actions_per_device", "count"},
	{"control.dropped", "count"},
	{"control.ladders_completed", "count"},

	{"diagnose.pulls_per_episode", "count"},
	{"diagnose.snapshot_bytes", "B"},
	{"diagnose.fold_p50_us", "us"},
	{"diagnose.result_ms", "ms"},
	{"diagnose.hit_frac", "1"},
	{"diagnose.delta_handoff_us", "us"},

	{"trace.spans_per_frame", "count"},
	{"trace.forced_overflow", "count"},

	{"process.allocs_per_frame", "count"},
	{"process.alloc_bytes_per_frame", "B"},
	{"process.gc_cpu_frac", "1"},

	{"loadgen.lag_p99_ms", "ms"},
}

// unitOf returns a metric's unit, or "" for an unknown name.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
