package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"saber/internal/engine"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/overload"
	"saber/internal/window"
	"saber/internal/workload"
)

// The overload experiment measures graceful degradation: the same
// 2×-capacity feed runs against plain blocking backpressure and against
// the two shedding rungs, with a tight admission budget. Blocking keeps
// every tuple but lets the queue — and therefore the tail latency —
// grow to the ring; the shedding policies hold the queue at the budget,
// keep goodput at capacity and keep the tail inside the SLO at the cost
// of an exactly-accounted shed fraction. Alongside the text report the
// experiment writes a machine-readable BENCH_overload.json, and
// overloadGate fails the run unless the oldest-policy goodput holds ≥80%
// of capacity with a real shed fraction, p99 within SLO and zero stalls.

func init() {
	register("overload", "Overload protection: goodput and tail latency at 2x capacity under blocking vs shedding", overloadExp)
}

// overloadJSONPath is where the experiment drops its JSON twin; tests
// point it into a scratch directory.
var overloadJSONPath = "BENCH_overload.json"

// Durations are vars so the smoke test can shrink them.
var (
	overloadCapacityProbe = 1200 * time.Millisecond
	overloadDuration      = 3 * time.Second
)

const (
	overloadWorkers = 2
	overloadPhi     = 64 << 10
	// overloadRing dwarfs the budget so the budget, not ring capacity, is
	// what admission enforces — and so the blocking baseline has room to
	// build the queue whose tail latency the shed policies are judged
	// against.
	overloadRing   = 64 << 20
	overloadBudget = 1 << 20
	// overloadMaxWait paces shed actuations: a blocked Insert waits this
	// long for the queue to drop below budget before the policy fires.
	overloadMaxWait  = time.Millisecond
	overloadFeedTick = time.Millisecond
	overloadOffered  = 2.0 // offered load as a multiple of capacity
	overloadSLO      = 25 * time.Millisecond
	// overloadGatePolicy names the shedding run the gate reads, and
	// overloadMinGoodputPct its goodput floor as a percentage of the
	// blocking baseline's.
	overloadGatePolicy    = "oldest"
	overloadMinGoodputPct = 80
)

type overloadRun struct {
	Policy      string  `json:"policy"`
	OfferedGBps float64 `json:"offered_gbps"` // bytes the feed handed to Insert
	GoodputGBps float64 `json:"goodput_gbps"` // admitted minus shed, per wall second
	// GoodputVsCapacityPct is the gate ratio: goodput as a percentage of
	// the blocking baseline's goodput at the same offered load.
	GoodputVsCapacityPct float64 `json:"goodput_vs_capacity_pct"`
	// ShedFrac is shed bytes over offered bytes (exact, from the
	// admission ledger).
	ShedFrac   float64 `json:"shed_frac"`
	P99Ms      float64 `json:"p99_ms"`
	MeetsSLO   bool    `json:"meets_slo"`
	AdmitWaits int64   `json:"admit_waits"`
	Stalls     int64   `json:"stalls"`
}

type overloadReport struct {
	// CapacityGBps is the blocking baseline's goodput under the same
	// offered load — the lossless reference every degradation ratio is
	// normalized against. (A separate saturation probe only sizes the
	// paced feed; short probes under-read steady state, so the paired
	// baseline is the honest denominator.)
	CapacityGBps float64 `json:"capacity_gbps"`
	SLOMs        float64 `json:"slo_ms"`
	OfferedX     float64 `json:"offered_x"` // offered multiple of capacity
	BudgetBytes  int64   `json:"budget_bytes"`
	// Runs holds the blocking baseline and the two shedding policies.
	Runs []overloadRun `json:"runs"`
	// Gate duplicates the overloadGatePolicy run the gate reads.
	Gate overloadRun `json:"gate"`
	// Metrics embeds the oldest-policy run's final snapshot
	// (saber.overload.* included) so the JSON is self-describing.
	Metrics obs.Snapshot `json:"metrics"`
}

// overloadGate returns the overload gate's failed conditions: under the
// 2x-capacity feed the gate run must keep goodput at or above
// overloadMinGoodputPct of the blocking baseline's, really shed (a zero
// shed fraction means the overload path was never exercised) and hold
// its tail p99 inside the SLO, and no run may trip the stall watchdog.
func overloadGate(js overloadReport) []string {
	var fails []string
	g := js.Gate
	if g.GoodputVsCapacityPct < overloadMinGoodputPct {
		fails = append(fails, fmt.Sprintf("%s goodput %.1f%% of capacity, below the %d%% floor",
			g.Policy, g.GoodputVsCapacityPct, overloadMinGoodputPct))
	}
	if g.ShedFrac <= 0 {
		fails = append(fails, fmt.Sprintf("%s run shed nothing: the overload path was never exercised", g.Policy))
	}
	if !g.MeetsSLO {
		fails = append(fails, fmt.Sprintf("%s run misses the %.0f ms SLO (tail p99 %.2f ms)", g.Policy, js.SLOMs, g.P99Ms))
	}
	for _, r := range js.Runs {
		if r.Stalls != 0 {
			fails = append(fails, fmt.Sprintf("%s run tripped the stall watchdog %d time(s)", r.Policy, r.Stalls))
		}
	}
	return fails
}

// overloadEngine builds one CPU-only engine with the experiment's shape.
func overloadEngine(ov *overload.Config) (*engine.Engine, *engine.Handle) {
	eng := engine.New(engine.Config{
		CPUWorkers:      overloadWorkers,
		TaskSize:        overloadPhi,
		InputBufferSize: overloadRing,
		Model:           model.Default(), // unscaled: the SLO is a real-time target
		Overload:        ov,
	})
	h, err := eng.Register(workload.Select(2, window.NewCount(1024, 1024)))
	if err != nil {
		panic(err)
	}
	if err := eng.Start(); err != nil {
		panic(err)
	}
	return eng, h
}

// overloadCapacity measures the shape's saturated goodput with plain
// blocking admission — the denominator for every degradation ratio.
func overloadCapacity() float64 {
	eng, h := overloadEngine(nil)
	block := synStream(11, 64, 16<<20)
	start := time.Now()
	total := int64(0)
	for time.Since(start) < overloadCapacityProbe {
		h.Insert(block[:2<<20])
		total += 2 << 20
	}
	eng.Drain()
	elapsed := time.Since(start)
	eng.Close()
	return float64(total) / elapsed.Seconds() / 1e9
}

// overloadMeasure drives the paced feed (rate from the saturation
// probe) against one policy (ov nil = blocking baseline) and measures
// offered rate, goodput, shed fraction and tail p99 over the whole run
// including the drain.
func overloadMeasure(paceGBps float64, ov *overload.Config) (overloadRun, obs.Snapshot) {
	eng, h := overloadEngine(ov)
	reg := eng.Metrics()

	block := synStream(11, 64, 16<<20)
	rate := workload.SteadyRate(overloadOffered * paceGBps * 1e9)
	counts := workload.PaceTuples(rate, workload.SynTupleSize, overloadFeedTick, overloadDuration)

	start := time.Now()
	offered := int64(0)
	off := 0
	for i, n := range counts {
		if wait := time.Duration(i)*overloadFeedTick - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		remaining := n * workload.SynTupleSize
		for remaining > 0 {
			c := remaining
			if off+c > len(block) {
				c = len(block) - off
			}
			h.Insert(block[off : off+c])
			offered += int64(c)
			off = (off + c) % len(block)
			remaining -= c
		}
	}
	eng.Drain()
	elapsed := time.Since(start)
	snap := reg.Snapshot()
	st := h.Stats()
	eng.Close()

	shedBytes := st.TuplesShed * workload.SynTupleSize
	droppedBytes := st.TuplesShedAdmit * workload.SynTupleSize
	e2e := snap.Histograms["saber.trace.e2e"]
	ing := snap.Histograms["saber.trace.ingest"]
	run := overloadRun{
		OfferedGBps: float64(offered) / elapsed.Seconds() / 1e9,
		GoodputGBps: float64(st.BytesIn-shedBytes) / elapsed.Seconds() / 1e9,
		ShedFrac:    float64(shedBytes+droppedBytes) / float64(offered),
		P99Ms:       float64(e2e.Quantile(0.99)+ing.Quantile(0.99)) / 1e6,
		AdmitWaits:  st.AdmitWaits,
		Stalls:      snap.Counters["saber.overload.stalls"],
	}
	run.MeetsSLO = run.P99Ms <= float64(overloadSLO)/1e6
	return run, snap
}

func overloadExp(Options) Report {
	rep := Report{
		ID:     "overload",
		Title:  "Overload protection: goodput and tail latency at 2x capacity under blocking vs shedding",
		Header: []string{"policy", "offered GB/s", "goodput GB/s", "vs capacity %", "shed frac", "p99 ms", "meets SLO", "stalls"},
	}

	pace := overloadCapacity()
	js := overloadReport{
		SLOMs:       float64(overloadSLO.Milliseconds()),
		OfferedX:    overloadOffered,
		BudgetBytes: overloadBudget,
	}

	policies := []struct {
		name string
		cfg  *overload.Config
	}{
		{"blocking", nil},
		{"oldest", &overload.Config{MaxQueueBytes: overloadBudget, Policy: overload.ShedOldest, MaxWait: overloadMaxWait}},
		{"weighted", &overload.Config{MaxQueueBytes: overloadBudget, Policy: overload.ShedWeighted, MaxWait: overloadMaxWait, Seed: 11}},
	}
	var snaps []obs.Snapshot
	for _, p := range policies {
		run, snap := overloadMeasure(pace, p.cfg)
		run.Policy = p.name
		js.Runs = append(js.Runs, run)
		snaps = append(snaps, snap)
	}
	// Normalize against the blocking baseline's goodput: it processes
	// every byte at whatever rate the pipeline sustains, so it IS the
	// shape's capacity under this offered load.
	capacity := js.Runs[0].GoodputGBps
	js.CapacityGBps = round2(capacity)
	for i := range js.Runs {
		if capacity > 0 {
			js.Runs[i].GoodputVsCapacityPct = round2(js.Runs[i].GoodputGBps / capacity * 100)
		}
		if js.Runs[i].Policy == overloadGatePolicy {
			js.Gate = js.Runs[i]
			js.Metrics = snaps[i]
		}
		run := js.Runs[i]
		rep.Rows = append(rep.Rows, []string{
			run.Policy, f2(run.OfferedGBps), f2(run.GoodputGBps), f2(run.GoodputVsCapacityPct),
			fmt.Sprintf("%.3f", run.ShedFrac), f2(run.P99Ms), fmt.Sprint(run.MeetsSLO), fmt.Sprint(run.Stalls)})
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("capacity %.2f GB/s (blocking baseline goodput); offered %.0fx the probe rate over %v, budget %d KiB, ϕ %d KiB, %d workers; gate reads the %q run",
			capacity, overloadOffered, overloadDuration, overloadBudget>>10, overloadPhi>>10, overloadWorkers, overloadGatePolicy),
		fmt.Sprintf("SLO %v on tail p99 (e2e + ingest batching); shed fraction is exact from the admission ledger", overloadSLO),
		"sheds are paced one MaxWait apart, so overload beyond the shed rate backpressures the source instead of free-falling")

	if buf, err := json.MarshalIndent(js, "", "  "); err == nil {
		if werr := os.WriteFile(overloadJSONPath, append(buf, '\n'), 0o644); werr != nil {
			rep.Notes = append(rep.Notes, "could not write "+overloadJSONPath+": "+werr.Error())
		} else {
			rep.Notes = append(rep.Notes, "machine-readable twin written to "+overloadJSONPath)
		}
	}
	rep.Failures = overloadGate(js)
	return rep
}
