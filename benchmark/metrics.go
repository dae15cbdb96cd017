package main

// metricDef is one named metric: unit, direction, and for end-to-end
// metrics the share of the baseline's median by which it may worsen before
// that counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports every one of them. The bounds are
// the widest a bound may be: the machine the baseline was taken on moves
// between a fast and a slow regime a fifth apart, every few minutes, and
// the run-to-run spread (quartile distance over median, ten seeds) reached
// 0.20 for the timings and 0.16 for the allocation count of sim-lossy,
// which depends on how often sync.Pool hands a run a second context.
// README.md has the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_msg", "ns", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.25},
}

// failedShare is the sixth end-to-end metric, the one with an absolute
// bound: it must be zero. A driver run carries it as failed over attempted.
var failedShare = metricDef{"failed_share", "fraction", "lower", 0}

// perLayer are the metrics of single layers, from the traced pass and the
// probes. They carry no bound: they say where an end-to-end change came
// from. A layer that is not on a workload's path reports zero there.
var perLayer = []metricDef{
	{name: "sim.self_ns_per_msg", unit: "ns", better: "lower"},
	{name: "sim.api_ns_per_send", unit: "ns", better: "lower"},
	{name: "sim.deliveries_per_call", unit: "count", better: "higher"},
	{name: "sim.events_per_msg", unit: "count", better: "lower"},
	{name: "sim.multicore_speedup", unit: "x", better: "higher"},
	{name: "sim.storm_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.busy_ns_per_msg", unit: "ns", better: "lower"},
	{name: "multiset.apply_ns", unit: "ns", better: "lower"},
	{name: "multiset.selectdouble_ns", unit: "ns", better: "lower"},
	{name: "wire.roundtrip_ns", unit: "ns", better: "lower"},
	{name: "rbc.round_us", unit: "us", better: "lower"},
	{name: "relnet.self_ns_per_msg", unit: "ns", better: "lower"},
	{name: "relnet.overhead_x", unit: "x", better: "lower"},
	{name: "relnet.msgs_amplification", unit: "x", better: "lower"},
	{name: "relnet.retransmit_ratio", unit: "fraction", better: "lower"},
	{name: "relnet.giveups", unit: "count", better: "lower"},
	{name: "harness.spec_us_per_run", unit: "us", better: "lower"},
	{name: "harness.run_self_us", unit: "us", better: "lower"},
	{name: "harness.run_reused_us", unit: "us", better: "lower"},
	{name: "harness.multicore_speedup", unit: "x", better: "higher"},
	{name: "livenet.send_ns_per_msg", unit: "ns", better: "lower"},
	{name: "livenet.wall_ms_per_run", unit: "ms", better: "lower"},
	{name: "livenet.msgs_per_run", unit: "count", better: "lower"},
	{name: "livenet.shed", unit: "count", better: "lower"},
	{name: "livenet.send_timeouts", unit: "count", better: "lower"},
	{name: "livenet.dropped", unit: "count", better: "lower"},
	{name: "live.op_ms_p90", unit: "ms", better: "lower"},
	{name: "serve.latency_ms_p90", unit: "ms", better: "lower"},
	{name: "serve.latency_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.goodput_per_s", unit: "1/s", better: "higher"},
	{name: "serve.msgs_per_instance", unit: "count", better: "lower"},
	{name: "serve.drain_ms", unit: "ms", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.deadline_exceeded", unit: "count", better: "lower"},
	{name: "serve.degraded", unit: "count", better: "lower"},
	{name: "serve.retries", unit: "count", better: "lower"},
	{name: "serve.simulate_us_per_req", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "fraction", better: "lower"},
	{name: "process.mem_sys_mb", unit: "MB", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
}
