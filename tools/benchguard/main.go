// Command benchguard gates the checked-in benchmark twins:
//
//   - Observability overhead (BENCH_operators.json, the operators
//     experiment): fails when the aggregate metrics-on overhead exceeds
//     the budget. The gate is the report's geometric-mean overhead
//     across operators, not the per-operator maximum: single-operator
//     readings at microsecond batch times are noise-dominated (a
//     descheduled trial shows up as several percent), while the
//     aggregate is stable. The bench batch (4096 tuples) is also ~8x
//     smaller than an engine task (1 MiB), so the measured overhead
//     overstates the engine's true per-byte cost.
//
//   - Columnar layout (same default run): every operator must carry a
//     columnar measurement whose paired columnar/row ratio stays above
//     -col-min (default 0.9 — kernel-level parity with a noise
//     allowance; the batch fits in cache, so the layouts are expected
//     to tie per-operator and structural regressions show up as large
//     drops).
//
//   - Adaptive task sizing (-adaptive, BENCH_adaptive.json, the
//     adaptive experiment): fails unless the adaptive run meets the
//     latency SLO under the bursty load AND sustains at least -min-pct
//     of the best fixed-ϕ configuration's paced throughput — the
//     "adaptivity is nearly free" claim, checked against the twin.
//
//   - Overload protection (-overload, BENCH_overload.json, the overload
//     experiment): fails unless the oldest-policy run under the
//     2x-capacity feed keeps goodput at or above -goodput-min percent of
//     the measured blocking capacity, actually sheds (a zero shed
//     fraction means the overload path was never exercised), holds its
//     tail p99 inside the experiment's SLO, and trips no stall
//     watchdog.
//
//   - Epoch checkpointing (-ckpt, BENCH_ckpt.json, the ckpt
//     experiment): fails when the paired checkpoint-on/off throughput
//     overhead exceeds -ckpt-max (default 5%), or when the run cut no
//     epochs — a coordinator that never fires would gate at 0% overhead
//     while protecting nothing.
//
// Usage:
//
//	go run ./tools/benchguard [-max 3] [-file BENCH_operators.json]
//	go run ./tools/benchguard -adaptive [-min-pct 90] [-file BENCH_adaptive.json]
//	go run ./tools/benchguard -ckpt [-ckpt-max 5] [-file BENCH_ckpt.json]
//	go run ./tools/benchguard -overload [-goodput-min 80] [-file BENCH_overload.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	adaptive := flag.Bool("adaptive", false, "gate the adaptive task-sizing twin instead of the observability overhead")
	ckpt := flag.Bool("ckpt", false, "gate the epoch-checkpointing overhead twin instead of the observability overhead")
	over := flag.Bool("overload", false, "gate the overload-protection twin instead of the observability overhead")
	file := flag.String("file", "", "experiment JSON twin (default BENCH_operators.json; BENCH_adaptive.json with -adaptive; BENCH_ckpt.json with -ckpt)")
	max := flag.Float64("max", 3, "maximum allowed aggregate metrics-on overhead, percent")
	minPct := flag.Float64("min-pct", 90, "with -adaptive: minimum adaptive throughput as a percentage of the best fixed ϕ")
	colMin := flag.Float64("col-min", 0.9, "minimum per-operator columnar/row throughput ratio")
	ckptMax := flag.Float64("ckpt-max", 5, "with -ckpt: maximum allowed paired checkpoint-on overhead, percent")
	goodputMin := flag.Float64("goodput-min", 80, "with -overload: minimum oldest-policy goodput as a percentage of blocking capacity")
	flag.Parse()

	if *adaptive {
		if *file == "" {
			*file = "BENCH_adaptive.json"
		}
		guardAdaptive(*file, *minPct)
		return
	}
	if *ckpt {
		if *file == "" {
			*file = "BENCH_ckpt.json"
		}
		guardCkpt(*file, *ckptMax)
		return
	}
	if *over {
		if *file == "" {
			*file = "BENCH_overload.json"
		}
		guardOverload(*file, *goodputMin)
		return
	}
	if *file == "" {
		*file = "BENCH_operators.json"
	}

	buf, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run saber-bench -experiment operators first)\n", err)
		os.Exit(2)
	}
	var js struct {
		Operators []struct {
			Name               string  `json:"name"`
			VectorizedMtps     float64 `json:"vectorized_mtps"`
			ColumnarMtps       float64 `json:"columnar_mtps"`
			ColumnarVsRow      float64 `json:"columnar_vs_row"`
			MetricsOnMtps      float64 `json:"metrics_on_mtps"`
			MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
		} `json:"operators"`
		MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
		Metrics            struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf, &js); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *file, err)
		os.Exit(2)
	}
	if len(js.Operators) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no operators (stale or truncated file?)\n", *file)
		os.Exit(2)
	}
	failed := false
	for _, op := range js.Operators {
		if op.MetricsOnMtps <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s: missing metrics-on measurement for %s (pre-observability file?)\n", *file, op.Name)
			os.Exit(2)
		}
		if op.ColumnarMtps <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s: missing columnar measurement for %s (pre-columnar file?)\n", *file, op.Name)
			os.Exit(2)
		}
		fmt.Printf("  %-18s bare %8.2f Mt/s   columnar %8.2f Mt/s (%.2fx)   metrics-on %8.2f Mt/s   overhead %5.2f%%\n",
			op.Name, op.VectorizedMtps, op.ColumnarMtps, op.ColumnarVsRow, op.MetricsOnMtps, op.MetricsOverheadPct)
		if op.ColumnarVsRow < *colMin {
			fmt.Fprintf(os.Stderr, "benchguard: %s columnar/row ratio %.2f below the %.2f floor\n",
				op.Name, op.ColumnarVsRow, *colMin)
			failed = true
		}
	}
	if len(js.Metrics.Counters) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: embedded metrics snapshot is empty\n", *file)
		os.Exit(2)
	}
	fmt.Printf("aggregate overhead %.2f%% (budget %.2f%%)\n", js.MetricsOverheadPct, *max)
	if js.MetricsOverheadPct > *max {
		fmt.Fprintf(os.Stderr, "benchguard: metrics-on overhead %.2f%% exceeds %.2f%% budget\n", js.MetricsOverheadPct, *max)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// adaptiveRun mirrors the adaptive experiment's per-config JSON record
// (internal/bench adaptRun).
type adaptiveRun struct {
	Phi      int     `json:"phi"`
	GBps     float64 `json:"gbps"`
	P99Ms    float64 `json:"p99_ms"`
	MeetsSLO bool    `json:"meets_slo"`
	PhiStart int     `json:"phi_start"`
	PhiFinal int     `json:"phi_final"`
	Grows    int64   `json:"grows"`
	Shrinks  int64   `json:"shrinks"`
}

// guardAdaptive gates BENCH_adaptive.json: the adaptive run must meet
// the SLO that the large fixed configurations violate, while keeping at
// least minPct of the best fixed configuration's paced throughput.
func guardAdaptive(file string, minPct float64) {
	buf, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run saber-bench -experiment adaptive first)\n", err)
		os.Exit(2)
	}
	var js struct {
		SLOMs             float64       `json:"slo_ms"`
		Fixed             []adaptiveRun `json:"fixed"`
		Adaptive          adaptiveRun   `json:"adaptive"`
		BestFixedGBps     float64       `json:"best_fixed_gbps"`
		AdaptiveVsBestPct float64       `json:"adaptive_vs_best_pct"`
	}
	if err := json.Unmarshal(buf, &js); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", file, err)
		os.Exit(2)
	}
	if len(js.Fixed) == 0 || js.Adaptive.PhiStart == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no fixed sweep or no adaptive run (stale or truncated file?)\n", file)
		os.Exit(2)
	}
	for _, r := range js.Fixed {
		fmt.Printf("  fixed ϕ=%-8d %6.2f GB/s   tail p99 %6.2f ms   meets SLO %v\n",
			r.Phi, r.GBps, r.P99Ms, r.MeetsSLO)
	}
	a := js.Adaptive
	fmt.Printf("  adaptive %d→%d  %6.2f GB/s   tail p99 %6.2f ms   meets SLO %v   (%d grows, %d shrinks)\n",
		a.PhiStart, a.PhiFinal, a.GBps, a.P99Ms, a.MeetsSLO, a.Grows, a.Shrinks)
	fmt.Printf("adaptive vs best fixed: %.1f%% of %.2f GB/s (floor %.1f%%), SLO %.0f ms\n",
		js.AdaptiveVsBestPct, js.BestFixedGBps, minPct, js.SLOMs)

	if !a.MeetsSLO {
		fmt.Fprintf(os.Stderr, "benchguard: adaptive run misses the %.0f ms SLO (tail p99 %.2f ms)\n",
			js.SLOMs, a.P99Ms)
		os.Exit(1)
	}
	if js.AdaptiveVsBestPct < minPct {
		fmt.Fprintf(os.Stderr, "benchguard: adaptive throughput %.1f%% of best fixed ϕ, below the %.1f%% floor\n",
			js.AdaptiveVsBestPct, minPct)
		os.Exit(1)
	}
	if a.Grows+a.Shrinks == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: adaptive run never resized ϕ — the controller was inert\n")
		os.Exit(1)
	}
}

// guardCkpt gates BENCH_ckpt.json: the paired checkpoint-on/off
// throughput overhead must stay within maxPct, with at least one epoch
// actually persisted (and none failing) so the measurement demonstrably
// exercised the coordinator.
func guardCkpt(file string, maxPct float64) {
	buf, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run saber-bench -experiment ckpt first)\n", err)
		os.Exit(2)
	}
	var js struct {
		IntervalMs  float64 `json:"interval_ms"`
		Trials      int     `json:"trials"`
		OffGBps     float64 `json:"off_gbps"`
		OnGBps      float64 `json:"on_gbps"`
		OverheadPct float64 `json:"overhead_pct"`
		Epochs      int64   `json:"epochs"`
		CkptBytes   int64   `json:"ckpt_bytes"`
		P50Ms       float64 `json:"snapshot_p50_ms"`
		P99Ms       float64 `json:"snapshot_p99_ms"`
		Runs        []struct {
			Ckpt     bool    `json:"ckpt"`
			GBps     float64 `json:"gbps"`
			Epochs   int64   `json:"epochs"`
			Failures int64   `json:"failures"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf, &js); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", file, err)
		os.Exit(2)
	}
	if js.Trials == 0 || len(js.Runs) == 0 || js.OffGBps <= 0 || js.OnGBps <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no trials recorded (stale or truncated file?)\n", file)
		os.Exit(2)
	}
	for _, r := range js.Runs {
		mode := "off"
		if r.Ckpt {
			mode = "on "
		}
		fmt.Printf("  checkpoint %s %6.2f GB/s   epochs %3d   persist failures %d\n",
			mode, r.GBps, r.Epochs, r.Failures)
		if r.Failures > 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %d checkpoint persist failure(s) during the measurement\n", r.Failures)
			os.Exit(1)
		}
	}
	fmt.Printf("paired overhead %.2f%% over %d pairs (budget %.2f%%), %d epochs at %0.fms period, snapshot p50 %.2f ms / p99 %.2f ms\n",
		js.OverheadPct, js.Trials, maxPct, js.Epochs, js.IntervalMs, js.P50Ms, js.P99Ms)
	if js.Epochs == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: checkpoint-on runs cut no epochs — the coordinator never fired\n")
		os.Exit(1)
	}
	if js.OverheadPct > maxPct {
		fmt.Fprintf(os.Stderr, "benchguard: checkpoint overhead %.2f%% exceeds %.2f%% budget\n", js.OverheadPct, maxPct)
		os.Exit(1)
	}
}

// overloadGateRun mirrors the overload experiment's per-policy JSON
// record (internal/bench overloadRun).
type overloadGateRun struct {
	Policy               string  `json:"policy"`
	OfferedGBps          float64 `json:"offered_gbps"`
	GoodputGBps          float64 `json:"goodput_gbps"`
	GoodputVsCapacityPct float64 `json:"goodput_vs_capacity_pct"`
	ShedFrac             float64 `json:"shed_frac"`
	P99Ms                float64 `json:"p99_ms"`
	MeetsSLO             bool    `json:"meets_slo"`
	Stalls               int64   `json:"stalls"`
}

// guardOverload gates BENCH_overload.json: under the 2x-capacity feed
// the oldest-policy run must keep goodput near capacity, really shed,
// stay inside the SLO and trip no stall watchdog — graceful degradation,
// demonstrated rather than asserted.
func guardOverload(file string, goodputMin float64) {
	buf, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run saber-bench -experiment overload first)\n", err)
		os.Exit(2)
	}
	var js struct {
		CapacityGBps float64           `json:"capacity_gbps"`
		SLOMs        float64           `json:"slo_ms"`
		OfferedX     float64           `json:"offered_x"`
		Runs         []overloadGateRun `json:"runs"`
		Gate         overloadGateRun   `json:"gate"`
	}
	if err := json.Unmarshal(buf, &js); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", file, err)
		os.Exit(2)
	}
	if js.CapacityGBps <= 0 || len(js.Runs) == 0 || js.Gate.Policy == "" {
		fmt.Fprintf(os.Stderr, "benchguard: %s: no capacity or gate run recorded (stale or truncated file?)\n", file)
		os.Exit(2)
	}
	for _, r := range js.Runs {
		fmt.Printf("  %-9s offered %5.2f GB/s   goodput %5.2f GB/s (%5.1f%% of capacity)   shed %5.1f%%   p99 %7.2f ms   meets SLO %v   stalls %d\n",
			r.Policy, r.OfferedGBps, r.GoodputGBps, r.GoodputVsCapacityPct, r.ShedFrac*100, r.P99Ms, r.MeetsSLO, r.Stalls)
	}
	g := js.Gate
	fmt.Printf("gate (%s): goodput %.1f%% of %.2f GB/s capacity (floor %.1f%%), shed %.1f%%, p99 %.2f ms (SLO %.0f ms) at %.0fx offered load\n",
		g.Policy, g.GoodputVsCapacityPct, js.CapacityGBps, goodputMin, g.ShedFrac*100, g.P99Ms, js.SLOMs, js.OfferedX)
	if g.GoodputVsCapacityPct < goodputMin {
		fmt.Fprintf(os.Stderr, "benchguard: overloaded goodput %.1f%% of capacity, below the %.1f%% floor\n",
			g.GoodputVsCapacityPct, goodputMin)
		os.Exit(1)
	}
	if g.ShedFrac <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: gate run shed nothing — the overload path was never exercised\n")
		os.Exit(1)
	}
	if !g.MeetsSLO {
		fmt.Fprintf(os.Stderr, "benchguard: gate run misses the %.0f ms SLO (tail p99 %.2f ms)\n", js.SLOMs, g.P99Ms)
		os.Exit(1)
	}
	for _, r := range js.Runs {
		if r.Stalls != 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s run tripped the stall watchdog %d time(s)\n", r.Policy, r.Stalls)
			os.Exit(1)
		}
	}
}
