package main

// metricDef names one metric of the benchmark's contract. The Go tables
// below are what the program emits; BENCHMARK.json lists the same names
// and a test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening of the median
}

// endToEnd are the metrics a user of the system sees, per workload.
// Timings are speed-normalised (see README, "Normalisation").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.01},
}

// printedOnly are end-to-end values every run prints and stores but the
// driver's contract cannot carry as bounded metrics: the two transport
// counts are exactly 0 on sim-figures (a bounded metric may never be
// 0), and fail_share is the contract's own failed/attempted.
var printedOnly = []metricDef{
	{"wire_kb_per_op", "KB", "lower", 0.01},
	{"msgs_per_op", "count", "lower", 0.01},
	{"fail_share", "ratio", "lower", 0},
}

// printed is everything a run prints per workload, in order.
var printed = append(append([]metricDef{}, endToEnd...), printedOnly...)

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{name: "core.decide_ns", unit: "ns", better: "lower"},
	{name: "core.decide_allocs", unit: "count", better: "lower"},
	{name: "core.decide_wide_ns", unit: "ns", better: "lower"},
	{name: "core.swap_time_predicted_us", unit: "us", better: "lower"},
	{name: "swaprt.swap_time_paid_over_predicted", unit: "ratio", better: "lower"},
	{name: "predict.window_mean_256_ns", unit: "ns", better: "lower"},
	{name: "predict.window_mean_20k_ns", unit: "ns", better: "lower"},
	{name: "swaprt.encode_small_us", unit: "us", better: "lower"},
	{name: "swaprt.encode_large_us", unit: "us", better: "lower"},
	{name: "swaprt.decode_small_us", unit: "us", better: "lower"},
	{name: "swaprt.decode_large_us", unit: "us", better: "lower"},
	{name: "swaprt.encode_large_alloc_kb", unit: "KB", better: "lower"},
	{name: "swaprt.decode_large_alloc_kb", unit: "KB", better: "lower"},
	{name: "swaprt.codec_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "swaprt.encoded_bytes_small", unit: "bytes", better: "lower"},
	{name: "swaprt.encoded_bytes_large", unit: "bytes", better: "lower"},
	{name: "swaprt.decide_us_per_op", unit: "us", better: "lower"},
	{name: "swaprt.state_send_us_per_op", unit: "us", better: "lower"},
	{name: "swaprt.state_recv_us_per_op", unit: "us", better: "lower"},
	{name: "swaprt.state_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "swaprt.swap_commit_ratio", unit: "ratio", better: "higher"},
	{name: "swaprt.decide_local_us", unit: "us", better: "lower"},
	{name: "swaprt.decide_remote_stay_us", unit: "us", better: "lower"},
	{name: "swaprt.decide_remote_swap_us", unit: "us", better: "lower"},
	{name: "swaprt.outcome_remote_us", unit: "us", better: "lower"},
	{name: "swaprt.telemetry_observe_ns", unit: "ns", better: "lower"},
	{name: "swaprt.unattributed_us", unit: "us", better: "lower"},
	{name: "swaprt.unattributed_large_us", unit: "us", better: "lower"},
	{name: "mgrstore.append_tmpfs_us", unit: "us", better: "lower"},
	{name: "mgrstore.append_disk_us", unit: "us", better: "lower"},
	{name: "mgrstore.append_mem_us", unit: "us", better: "lower"},
	{name: "mgrstore.records_per_op", unit: "count", better: "lower"},
	{name: "policylens.observe_decision_ns", unit: "ns", better: "lower"},
	{name: "policylens.observe_iteration_ns", unit: "ns", better: "lower"},
	{name: "mpi.pingpong_small_us", unit: "us", better: "lower"},
	{name: "mpi.xfer_large_us", unit: "us", better: "lower"},
	{name: "mpi.allgather_us", unit: "us", better: "lower"},
	{name: "mpi.bcast_us", unit: "us", better: "lower"},
	{name: "mpi.gather_us", unit: "us", better: "lower"},
	{name: "mpi.commof_us", unit: "us", better: "lower"},
	{name: "mpi.collectives_per_op", unit: "count", better: "lower"},
	{name: "mpi.send_block_us_per_op", unit: "us", better: "lower"},
	{name: "mpi.causal_overhead_ns", unit: "ns", better: "lower"},
	{name: "mpi.wire_kb_per_op", unit: "KB", better: "lower"},
	{name: "mpi.msgs_per_op", unit: "count", better: "lower"},
	{name: "wire.encode_small_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_large_us", unit: "us", better: "lower"},
	{name: "wire.decode_large_us", unit: "us", better: "lower"},
	{name: "obs.emit_off_ns", unit: "ns", better: "lower"},
	{name: "obs.emit_flight_ns", unit: "ns", better: "lower"},
	{name: "flight.observe_ns", unit: "ns", better: "lower"},
	{name: "obs.events_per_op", unit: "count", better: "lower"},
	{name: "obs.dropped_events", unit: "count", better: "lower"},
	{name: "simkern.event_ns", unit: "ns", better: "lower"},
	{name: "simkern.event_allocs", unit: "count", better: "lower"},
	{name: "simkern.proc_switch_ns", unit: "ns", better: "lower"},
	{name: "platform.compute_finish_ns", unit: "ns", better: "lower"},
	{name: "platform.link_share32_us", unit: "us", better: "lower"},
	{name: "loadgen.onoff_day_us", unit: "us", better: "lower"},
	{name: "loadgen.hyperexp_day_us", unit: "us", better: "lower"},
	{name: "strategy.none_run_us", unit: "us", better: "lower"},
	{name: "strategy.swap_run_us", unit: "us", better: "lower"},
	{name: "strategy.dlb_run_us", unit: "us", better: "lower"},
	{name: "strategy.cr_run_us", unit: "us", better: "lower"},
	{name: "strategy.swap_run_allocs", unit: "count", better: "lower"},
	{name: "experiment.fig4_ms", unit: "ms", better: "lower"},
	{name: "experiment.fig7_ms", unit: "ms", better: "lower"},
	{name: "experiment.runs_per_op", unit: "count", better: "lower"},
	{name: "experiment.serial_ms", unit: "ms", better: "lower"},
	{name: "experiment.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "harness.op_p99_us", unit: "us", better: "lower"},
	{name: "harness.samples", unit: "count", better: "higher"},
	{name: "harness.scale", unit: "ratio", better: "higher"},
	{name: "harness.ctl_ms", unit: "ms", better: "lower"},
	{name: "harness.round_spread_pct", unit: "%", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "harness.gomaxprocs", unit: "count", better: "higher"},
}

// layerSource says which workload's traced round a workload-derived
// layer metric is read from; "" means the invocation's own workload
// when that is a live swap workload, else swap-small.
var layerSource = map[string]string{
	"swaprt.decide_us_per_op":     "",
	"swaprt.state_send_us_per_op": "",
	"swaprt.state_recv_us_per_op": "",
	"swaprt.state_bytes_per_op":   "",
	"swaprt.swap_commit_ratio":    "",
	"mpi.collectives_per_op":      "",
	"mpi.send_block_us_per_op":    "",
	"mgrstore.records_per_op":     "managed-swap",
	"obs.events_per_op":           "steady-observed",
	"obs.dropped_events":          "steady-observed",
	"experiment.runs_per_op":      "sim-figures",
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
