package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"saber/internal/adapt"
	"saber/internal/engine"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/window"
	"saber/internal/workload"
)

// The adaptive experiment measures what dynamic ϕ buys under bursty
// load: a fixed-ϕ sweep shows the static trade — small tasks pay the
// per-task overhead in sustained capacity, while large tasks blow the
// latency SLO (batching delay at the trough, queueing at the burst) —
// and the adaptive controller, started from the engine's default 1 MiB,
// must shrink into the band that meets the SLO without giving up paced
// throughput. Alongside the text report it writes a machine-readable
// BENCH_adaptive.json, and adaptGate fails the run unless the adaptive
// tail p99 meets the SLO at ≥90% of the best fixed-ϕ throughput.

func init() {
	register("adaptive", "Adaptive task sizing (dynamic ϕ) vs fixed-ϕ sweep under bursty load", adaptive)
}

// adaptiveJSONPath is where the experiment drops its JSON twin; tests
// point it into a scratch directory.
var adaptiveJSONPath = "BENCH_adaptive.json"

// The workload: square-wave bursts over a steady base, sized against
// the sustained capacity the engine actually measures on the host the
// experiment runs on (~0.5 GB/s at ϕ=16 KiB rising to ~0.6 GB/s at
// mid ϕ — per-task overhead is real, so small tasks genuinely cost
// throughput). The burst approaches the small-ϕ capacity so tiny
// tasks queue against the SLO; the base rate makes large tasks pay
// ϕ/rate batching (ingest) delay against it. The latency metric is
// the tail p99 — ingest batching p99 plus post-cut e2e p99 — the
// same signal the controller steers on (adapt.Signals.TailP99).
const (
	adaptBaseRate  = 80e6  // bytes/sec at the trough
	adaptBurstRate = 300e6 // bytes/sec during the burst
	adaptPeriod    = time.Second
	adaptBurstLen  = 300 * time.Millisecond
	adaptDuration  = 5 * time.Second
	// adaptFeedTick quantizes the paced feeder; it must sit well under
	// the SLO because a tuple landing just after a tick's lump waits a
	// full tick before its task can fill (an ingest-latency floor).
	adaptFeedTick = time.Millisecond
	adaptSLO      = 12 * time.Millisecond
	// adaptTarget is what the controller steers at: 75% of the reported
	// SLO. Steering at the SLO itself would converge to ϕ just under the
	// boundary and leave the measured tail no margin for run-to-run
	// noise — the usual burn-rate margin, applied to ϕ.
	adaptTarget   = 9 * time.Millisecond
	adaptInterval = 100 * time.Millisecond
	adaptWarmup   = 1500 * time.Millisecond // excluded from steady-state p99
	adaptWorkers  = 2
	adaptMinPhi   = 16 << 10
	adaptMaxPhi   = 1 << 20
	// adaptMinVsBestPct is the gate's throughput floor: adaptive throughput
	// as a percentage of the best fixed ϕ's.
	adaptMinVsBestPct = 90
)

type adaptRun struct {
	Phi int `json:"phi,omitempty"` // fixed runs only
	// CapacityGBps is the ϕ's saturated throughput from a separate
	// full-throttle feed (fixed runs only): the honest record of what
	// small tasks cost in per-task overhead, measured apart from the
	// paced SLO runs so saturation queueing cannot poison their tails.
	CapacityGBps float64 `json:"capacity_gbps,omitempty"`
	GBps         float64 `json:"gbps"`
	P99Ms        float64 `json:"p99_ms"`      // steady-state (post-warmup)
	P99FullMs    float64 `json:"p99_full_ms"` // whole run, incl. transient
	MeetsSLO     bool    `json:"meets_slo"`
	GPUShare     float64 `json:"gpu_share"`

	// Adaptive-run controller trajectory.
	PhiStart int   `json:"phi_start,omitempty"`
	PhiFinal int   `json:"phi_final,omitempty"`
	Grows    int64 `json:"grows,omitempty"`
	Shrinks  int64 `json:"shrinks,omitempty"`
	Clamps   int64 `json:"clamps,omitempty"`
}

type adaptReport struct {
	SLOMs         float64    `json:"slo_ms"`
	BaseRateMBps  float64    `json:"base_rate_mbps"`
	BurstRateMBps float64    `json:"burst_rate_mbps"`
	BurstDuty     float64    `json:"burst_duty"`
	Fixed         []adaptRun `json:"fixed"`
	Adaptive      adaptRun   `json:"adaptive"`
	BestFixedGBps float64    `json:"best_fixed_gbps"`
	// AdaptiveVsBestPct is the acceptance ratio: adaptive throughput as
	// a percentage of the best fixed-ϕ throughput. The gate requires
	// ≥adaptMinVsBestPct with Adaptive.MeetsSLO true.
	AdaptiveVsBestPct float64 `json:"adaptive_vs_best_pct"`
}

// adaptGate returns the adaptive gate's failed conditions: the adaptive
// run must meet the SLO that the large fixed configurations violate,
// keep at least adaptMinVsBestPct of the best fixed configuration's
// paced throughput, and have resized ϕ at least once.
func adaptGate(js adaptReport) []string {
	var fails []string
	a := js.Adaptive
	if !a.MeetsSLO {
		fails = append(fails, fmt.Sprintf("adaptive run misses the %.0f ms SLO (tail p99 %.2f ms)", js.SLOMs, a.P99Ms))
	}
	if js.AdaptiveVsBestPct < adaptMinVsBestPct {
		fails = append(fails, fmt.Sprintf("adaptive throughput %.1f%% of the best fixed ϕ, below the %d%% floor",
			js.AdaptiveVsBestPct, adaptMinVsBestPct))
	}
	if a.Grows+a.Shrinks == 0 {
		fails = append(fails, "adaptive run never resized ϕ: the controller was inert")
	}
	return fails
}

// adaptEngine builds the experiment's engine + device pair.
func adaptEngine(taskSize int, adaptCfg *adapt.Config) (*engine.Engine, *gpu.Device, *engine.Handle) {
	params := model.Default() // unscaled: the SLO is a real-time target
	dev := gpu.Open(gpu.Config{Model: params})
	eng := engine.New(engine.Config{
		CPUWorkers: adaptWorkers,
		GPU:        dev,
		TaskSize:   taskSize,
		Model:      params,
		Adapt:      adaptCfg,
	})
	h, err := eng.Register(workload.Select(2, window.NewCount(1024, 1024)))
	if err != nil {
		panic(err)
	}
	if err := eng.Start(); err != nil {
		panic(err)
	}
	return eng, dev, h
}

// adaptCapacity measures one fixed ϕ's saturated throughput with a
// full-throttle feed for about a second.
func adaptCapacity(taskSize int) float64 {
	eng, dev, h := adaptEngine(taskSize, nil)
	defer dev.Close()
	block := synStream(7, 64, 16<<20)
	start := time.Now()
	total := int64(0)
	for time.Since(start) < 1200*time.Millisecond {
		h.Insert(block[:4<<20])
		total += 4 << 20
	}
	eng.Drain()
	elapsed := time.Since(start)
	eng.Close()
	return float64(total) / elapsed.Seconds() / 1e9
}

// adaptMeasure runs the burst workload against one engine configuration
// and measures sustained throughput plus steady-state p99. adaptCfg nil
// means fixed ϕ = taskSize.
func adaptMeasure(taskSize int, adaptCfg *adapt.Config) adaptRun {
	eng, dev, h := adaptEngine(taskSize, adaptCfg)
	defer dev.Close()
	phiStart := eng.TaskSize()

	// One 16 MiB block of synthetic tuples, fed cyclically: the byte
	// volume is ~3.7 GB, far too much to pre-generate, and the latency
	// surface only depends on rates and sizes, not tuple novelty.
	block := synStream(7, 64, 16<<20)
	rate := workload.BurstRate(adaptBaseRate, adaptBurstRate, adaptPeriod, adaptBurstLen)
	counts := workload.PaceTuples(rate, workload.SynTupleSize, adaptFeedTick, adaptDuration)

	reg := eng.Metrics()
	var warm obs.Snapshot
	warmTick := int(adaptWarmup / adaptFeedTick)

	start := time.Now()
	total := int64(0)
	off := 0
	for i, n := range counts {
		if wait := time.Duration(i)*adaptFeedTick - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if i == warmTick {
			warm = reg.Snapshot()
		}
		remaining := n * workload.SynTupleSize
		for remaining > 0 {
			c := remaining
			if off+c > len(block) {
				c = len(block) - off
			}
			h.Insert(block[off : off+c])
			total += int64(c)
			off = (off + c) % len(block)
			remaining -= c
		}
	}
	eng.Drain()
	elapsed := time.Since(start)
	final := reg.Snapshot()
	eng.Close()

	// Tail p99 = ingest batching p99 + post-cut e2e p99: the e2e trace
	// starts at the task cut, so the batching delay a large ϕ inflicts
	// at low rate only shows in the ingest stage histogram.
	tailP99 := func(s obs.Snapshot) float64 {
		e2e := s.Histograms["saber.trace.e2e"]
		ing := s.Histograms["saber.trace.ingest"]
		return float64(e2e.Quantile(0.99)+ing.Quantile(0.99)) / 1e6
	}
	steady := obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{
		"saber.trace.e2e":    final.Histograms["saber.trace.e2e"].Sub(warm.Histograms["saber.trace.e2e"]),
		"saber.trace.ingest": final.Histograms["saber.trace.ingest"].Sub(warm.Histograms["saber.trace.ingest"]),
	}}
	if steady.Histograms["saber.trace.e2e"].Count == 0 {
		steady = final
	}
	st := h.Stats()
	run := adaptRun{
		GBps:      float64(total) / elapsed.Seconds() / 1e9,
		P99Ms:     tailP99(steady),
		P99FullMs: tailP99(final),
		GPUShare:  st.GPUShare(),
	}
	run.MeetsSLO = run.P99Ms <= float64(adaptSLO)/1e6
	if adaptCfg != nil {
		run.PhiStart = phiStart
		run.PhiFinal = eng.TaskSize()
		run.Grows = final.Counters["saber.adapt.grow"]
		run.Shrinks = final.Counters["saber.adapt.shrink"]
		run.Clamps = final.Counters["saber.adapt.clamped"]
	} else {
		run.Phi = taskSize
	}
	return run
}

func adaptive(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "adaptive",
		Title:  "Adaptive task sizing (dynamic ϕ) vs fixed-ϕ sweep under bursty load",
		Header: []string{"config", "GB/s", "capacity GB/s", "tail p99 ms", "p99 ms (full)", "meets SLO", "gpu share"},
	}

	js := adaptReport{
		SLOMs:         float64(adaptSLO.Milliseconds()),
		BaseRateMBps:  adaptBaseRate / 1e6,
		BurstRateMBps: adaptBurstRate / 1e6,
		BurstDuty:     float64(adaptBurstLen) / float64(adaptPeriod),
	}

	for _, phi := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		r := adaptMeasure(phi, nil)
		r.CapacityGBps = round2(adaptCapacity(phi))
		js.Fixed = append(js.Fixed, r)
		if r.GBps > js.BestFixedGBps {
			js.BestFixedGBps = r.GBps
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("fixed %d KiB", phi>>10),
			f2(r.GBps), f2(r.CapacityGBps), f2(r.P99Ms), f2(r.P99FullMs), fmt.Sprint(r.MeetsSLO), f2(r.GPUShare)})
	}

	js.Adaptive = adaptMeasure(1<<20, &adapt.Config{
		MinPhi:   adaptMinPhi,
		MaxPhi:   adaptMaxPhi,
		SLO:      adaptTarget,
		Interval: adaptInterval,
	})
	if js.BestFixedGBps > 0 {
		js.AdaptiveVsBestPct = round2(js.Adaptive.GBps / js.BestFixedGBps * 100)
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("adaptive %d→%d KiB", js.Adaptive.PhiStart>>10, js.Adaptive.PhiFinal>>10),
		f2(js.Adaptive.GBps), "-", f2(js.Adaptive.P99Ms), f2(js.Adaptive.P99FullMs),
		fmt.Sprint(js.Adaptive.MeetsSLO), f2(js.Adaptive.GPUShare)})

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("SLO %v tail p99 = ingest batching p99 + e2e p99 (steady-state, first %v of controller convergence excluded)", adaptSLO, adaptWarmup),
		fmt.Sprintf("burst %0.fMB/s over %0.fMB/s base, %d%% duty; unscaled model, %d CPU workers",
			adaptBurstRate/1e6, adaptBaseRate/1e6, int(js.BurstDuty*100), adaptWorkers),
		fmt.Sprintf("adaptive vs best fixed: %.1f%% (gate ≥%d%% with SLO met)", js.AdaptiveVsBestPct, adaptMinVsBestPct))

	if buf, err := json.MarshalIndent(js, "", "  "); err == nil {
		if werr := os.WriteFile(adaptiveJSONPath, append(buf, '\n'), 0o644); werr != nil {
			rep.Notes = append(rep.Notes, "could not write "+adaptiveJSONPath+": "+werr.Error())
		} else {
			rep.Notes = append(rep.Notes, "machine-readable twin written to "+adaptiveJSONPath)
		}
	}
	rep.Failures = adaptGate(js)
	return rep
}
