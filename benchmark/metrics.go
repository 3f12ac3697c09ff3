package main

import (
	"fmt"
	"strings"

	"saber/internal/obs"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end metrics only
}

// endToEnd are the metrics a user of the engine would see, with the share
// of the parent's median by which each may worsen before a change counts as
// a regression. failed_share of the issue is not listed: it is zero on a
// healthy run, so it travels as the result line's failed/attempted counts.
// Nor is its cpu_s_per_gtuple: for minutes at a time this host gives the same
// work 45 % more CPU time (join-band's rate reps read 750 or 1100 s/Gtuple),
// which no bound the contract allows can hold. Its two halves are in the
// layer table as proc.user_s_per_gtuple and proc.sys_s_per_gtuple.
var endToEnd = []metricDef{
	{"sat_mtps", "Mtuple/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run (source A: spans
// and the engine's registry around the measured window) and of the isolated
// replays (source B). The prefix is the layer, named after the repo's module.
var perLayer = []metricDef{
	{"gen.late_ms_max", "ms", "lower", 0},
	{"gen.self_ns_per_tuple", "ns", "lower", 0},

	{"ingest.wire_us_p50", "us", "lower", 0},
	{"ingest.send_block_us_p50", "us", "lower", 0},
	{"ingest.send_busy_share", "ratio", "lower", 0},
	{"ingest.loop_ns_per_tuple", "ns", "lower", 0},
	{"ingest.frames", "count", "lower", 0},
	{"ingest.frame_errors", "count", "lower", 0},
	{"ingest.reconnects", "count", "lower", 0},
	{"ingest.resends", "count", "lower", 0},
	{"ingest.credit_waits", "count", "lower", 0},

	{"ringbuf.put_ns_per_tuple", "ns", "lower", 0},
	{"ringbuf.shred_ns_per_tuple", "ns", "lower", 0},
	{"ringbuf.shred_cols", "count", "lower", 0},
	{"ringbuf.wraps", "count", "lower", 0},
	{"ringbuf.zero_copy_share", "ratio", "higher", 0},

	{"engine.insert_us_p50", "us", "lower", 0},
	{"engine.insert_ns_per_tuple", "ns", "lower", 0},
	{"engine.insert_busy_share", "ratio", "lower", 0},
	{"engine.batch_wait_us_p50", "us", "lower", 0},
	{"engine.tasks", "count", "lower", 0},
	{"engine.direct_1w_mtps", "Mtuple/s", "higher", 0},
	{"engine.internal_us_p50", "us", "lower", 0},

	{"task.queue_wait_us_p50", "us", "lower", 0},
	{"task.queue_wait_ns_per_tuple", "ns", "lower", 0},
	{"task.queue_len_mean", "count", "lower", 0},
	{"task.queue_len_max", "count", "lower", 0},
	{"task.pushpop_ns_per_op", "ns", "lower", 0},

	{"sched.next_ns_per_op", "ns", "lower", 0},
	{"sched.gpu_share", "ratio", "higher", 0},
	{"sched.flips", "count", "lower", 0},
	{"sched.selected", "count", "lower", 0},

	{"exec.process_ns_per_tuple", "ns", "lower", 0},
	{"exec.exec_us_p50", "us", "lower", 0},
	{"exec.cpu_busy_share", "ratio", "lower", 0},
	{"exec.out_rows_per_ktuple", "count", "lower", 0},
	{"exec.out_b_per_tuple", "B", "lower", 0},

	{"window.fragments_ns_per_task", "ns", "lower", 0},
	{"window.fragments_per_task", "count", "lower", 0},

	{"result.reorder_us_p50", "us", "lower", 0},
	{"result.reorder_ns_per_tuple", "ns", "lower", 0},
	{"result.assemble_ns_per_tuple", "ns", "lower", 0},
	{"result.overflow", "count", "lower", 0},
	{"result.sink_calls", "count", "lower", 0},
	{"result.out_bytes", "B", "lower", 0},

	{"gpu.copyin_us_p50", "us", "lower", 0},
	{"gpu.movein_us_p50", "us", "lower", 0},
	{"gpu.kernel_us_p50", "us", "lower", 0},
	{"gpu.moveout_us_p50", "us", "lower", 0},
	{"gpu.copyout_us_p50", "us", "lower", 0},
	{"gpu.run_ns_per_tuple", "ns", "lower", 0},
	{"gpu.bytes_moved_per_tuple", "B", "lower", 0},
	{"gpu.gathers_elided", "count", "higher", 0},
	{"gpu.staging_grows", "count", "lower", 0},
	{"gpu.tasks_failed", "count", "lower", 0},

	{"ckpt.epochs", "count", "lower", 0},
	{"ckpt.snapshot_ms_p50", "ms", "lower", 0},
	{"ckpt.bytes_per_epoch", "B", "lower", 0},
	{"overload.admit_waits", "count", "lower", 0},
	{"overload.shed_tuples", "count", "lower", 0},

	{"compile.us", "us", "lower", 0},

	{"proc.user_s_per_gtuple", "s/Gtuple", "lower", 0},
	{"proc.sys_s_per_gtuple", "s/Gtuple", "lower", 0},
	{"proc.alloc_b_per_tuple", "B", "lower", 0},
	{"proc.mallocs_per_ktuple", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"verify_s", "s", "lower", 0},

	{"trace.frame_ms_p50", "ms", "lower", 0},
	{"trace.lat_p50_ms", "ms", "lower", 0},
	{"trace.untraced_lat_p50_ms", "ms", "lower", 0},
	{"trace.untraced_lat_p99_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans_vs_lat_pct", "%", "higher", 0},
	{"trace.lat_samples", "count", "higher", 0},
}

// delta is the change of a registry between two snapshots of one engine.
type delta struct{ a, b obs.Snapshot }

// counter sums, over every metric whose name has the prefix and the
// suffix, how much it grew. Counters and gauges mirror cumulative values.
func (d delta) counter(prefix, suffix string) (n float64) {
	match := func(k string) bool { return strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) }
	for k, v := range d.b.Counters {
		if match(k) {
			n += float64(v - d.a.Counters[k])
		}
	}
	for k, v := range d.b.Gauges {
		if match(k) {
			n += v - d.a.Gauges[k]
		}
	}
	return n
}

func (d delta) hist(name string) obs.HistogramSnapshot {
	return d.b.Histograms[name].Sub(d.a.Histograms[name])
}

// layerMetrics fills m with every source-A metric of a traced rate rep.
func layerMetrics(m map[string]float64, r *rep, workers int) {
	win := delta{r.s0, r.s1}                // the measured window
	whole := delta{obs.Snapshot{}, r.final} // the whole rep, drained
	tuples := float64(r.winTuples)
	p50us := func(name string) float64 { return float64(win.hist(name).Quantile(0.5)) / 1e3 }
	perTuple := func(name string) float64 { return float64(win.hist(name).Sum) / tuples }
	midUs := func(sorted []int64) float64 { return quantile(sorted, 0.5) / 1e3 }

	st := r.trace.stats(r.winStart)
	m["gen.late_ms_max"] = float64(r.lateMaxNs) / 1e6
	m["ingest.wire_us_p50"] = midUs(st.child[1])
	m["ingest.send_block_us_p50"] = midUs(st.sendDur)
	m["ingest.send_busy_share"] = float64(st.sendNs) / (r.winS * 1e9)
	m["ingest.frames"] = whole.counter("saber.ingest.", ".frames")
	m["ingest.frame_errors"] = float64(frameErrors(r.final))
	m["ingest.reconnects"] = float64(r.reconnects)
	m["ingest.resends"] = float64(r.resends)
	m["ingest.credit_waits"] = float64(r.creditWaits)

	m["ringbuf.wraps"] = whole.counter("saber.engine.", ".ring.wraps")
	elided, copied := whole.counter("saber.ring.", ".gather.elided"), whole.counter("saber.ring.", ".gather.copied")
	m["ringbuf.zero_copy_share"] = 0
	if elided+copied > 0 {
		m["ringbuf.zero_copy_share"] = elided / (elided + copied)
	}

	m["engine.insert_us_p50"] = midUs(st.child[2])
	m["engine.insert_ns_per_tuple"] = float64(st.insertNs) / (float64(st.frames) * float64(r.trace.streams[0].frameTuples))
	m["engine.insert_busy_share"] = float64(st.insertNs) / (r.winS * 1e9)
	m["engine.batch_wait_us_p50"] = p50us("saber.trace.ingest")
	m["engine.tasks"] = whole.counter("saber.engine.", ".tasks.created")
	m["engine.internal_us_p50"] = midUs(st.child[3])

	m["task.queue_wait_us_p50"] = p50us("saber.trace.queue")
	m["task.queue_wait_ns_per_tuple"] = perTuple("saber.trace.queue")
	m["task.queue_len_mean"] = float64(r.qlenSum) / float64(max(r.qlenN, 1))
	m["task.queue_len_max"] = float64(r.qlenMax)

	cpu, gpu := whole.counter("saber.engine.", ".tasks.cpu"), whole.counter("saber.engine.", ".tasks.gpu")
	m["sched.gpu_share"] = gpu / max(cpu+gpu, 1)
	m["sched.flips"] = whole.counter("saber.sched.hls.flips", "")
	m["sched.selected"] = whole.counter("saber.sched.hls.selected", "")

	m["exec.exec_us_p50"] = p50us("saber.trace.exec.cpu")
	m["exec.cpu_busy_share"] = float64(win.hist("saber.trace.exec.cpu").Sum) / (float64(workers) * r.winS * 1e9)
	in := whole.counter("saber.engine.", ".bytes.in") / tupleSize
	m["exec.out_rows_per_ktuple"] = whole.counter("saber.engine.", ".tuples.out") / in * 1e3
	m["exec.out_b_per_tuple"] = whole.counter("saber.engine.", ".bytes.out") / in

	m["result.reorder_us_p50"] = p50us("saber.trace.reorder")
	m["result.reorder_ns_per_tuple"] = perTuple("saber.trace.reorder")
	m["result.overflow"] = whole.counter("saber.engine.", ".result.overflow")
	m["result.sink_calls"] = float64(r.calls)
	m["result.out_bytes"] = float64(r.outBytes)

	for _, stage := range []string{"copyin", "movein", "kernel", "moveout", "copyout"} {
		m["gpu."+stage+"_us_p50"] = p50us("saber.trace.gpu." + stage)
	}
	m["gpu.bytes_moved_per_tuple"] = whole.counter("saber.gpu.bytes.moved", "") / in
	m["gpu.gathers_elided"] = whole.counter("saber.gpu.gathers.elided", "")
	m["gpu.staging_grows"] = whole.counter("saber.gpu.staging.grows", "")
	m["gpu.tasks_failed"] = whole.counter("saber.gpu.tasks.failed", "")

	epochs := whole.counter("saber.ckpt.epochs", "")
	m["ckpt.epochs"] = epochs
	m["ckpt.snapshot_ms_p50"] = float64(whole.hist("saber.ckpt.snapshot.ns").Quantile(0.5)) / 1e6
	m["ckpt.bytes_per_epoch"] = whole.counter("saber.ckpt.bytes", "") / max(epochs, 1)
	m["overload.admit_waits"] = whole.counter("saber.overload.", ".admit.waits")
	m["overload.shed_tuples"] = whole.counter("saber.overload.", ".tuples") + whole.counter("saber.engine.", ".tuples.shed")

	// Span accounting. The four children tile the frame span, so the sum
	// of a frame's self times is its duration; the frames' median is held
	// against the median latency of the sampled rows of the same run.
	m["trace.frame_ms_p50"] = quantile(st.frame, 0.5) / 1e6
	m["trace.lat_p50_ms"] = quantile(r.lat, 0.5) / 1e6
	m["trace.lat_samples"] = float64(len(r.lat))
	m["trace.spans_vs_lat_pct"] = 100 * quantile(st.frame, 0.5) / max(quantile(r.lat, 0.5), 1)
}

func fmtMetric(d metricDef, v float64) string {
	return fmt.Sprintf("%-32s %14.4f %s", d.name, v, d.unit)
}
