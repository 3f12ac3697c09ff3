// Command benchmark is the repo's native-speed end-to-end benchmark: one
// generator goroutine → ingest.Client → loopback TCP → ingest.Server →
// engine (DisablePad) → result stage → sink, over six named workloads, with a
// per-layer table measured from outside the engine. See README.md.
//
//	go run -C benchmark . -workload select -seed 1 -seconds 16 -trace 0
//	go run -C benchmark .            # every workload, both modes, as a table
//	go run -C benchmark . -aa        # two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run in this process; empty runs all six, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the generated input")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
		aa       = flag.Bool("aa", false, "run two full sets on this binary and compare them against the bounds")
		jsonPath = flag.String("json", "", "also write the full results to this file")
		specOut  = flag.Bool("print-spec", false, "print BENCHMARK.json as the tables in this program define it")
	)
	flag.Parse()
	switch {
	case *specOut:
		printSpec()
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *aa, *jsonPath))
	default:
		sp := findWorkload(*name)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		o := runWorkload(sp, *seed, *seconds, *traced != 0)
		for _, err := range o.errs {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		res := o.res
		defs := endToEnd
		if *traced != 0 {
			defs = perLayer
		}
		for _, d := range defs {
			fmt.Println(fmtMetric(d, res.Metrics[d.name].Value))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// tally accumulates the attempted/failed counts over a run's reps.
type tally struct {
	attempted, failed int64
	errs              []error
}

func (t *tally) add(what string, r *rep) {
	fmt.Fprintf(os.Stderr, "# %-7s set-up %6.1f ms  wall %5.2f s  window %5.2f s  %6.2f Mtuple/s  p50 %7.3f ms  p99 %7.3f ms  late max %6.2f ms  cpu %6.1f+%6.1f s/Gtuple  rows %d\n",
		what, r.setupS*1e3, r.wallS, r.winS, float64(r.winTuples)/r.winS/1e6,
		quantile(r.lat, 0.5)/1e6, quantile(r.lat, 0.99)/1e6, float64(r.lateMaxNs)/1e6,
		r.user/float64(max(r.winTuples, 1))*1e9, r.sys/float64(max(r.winTuples, 1))*1e9, r.outRows)
	t.attempted += r.offered
	if r.err != nil {
		t.failed += r.offered
		t.errs = append(t.errs, fmt.Errorf("%s: %w", what, r.err))
	}
}

// outcome is what one run of one workload produced.
type outcome struct {
	res    result
	errs   []error
	verify *rep
}

// runWorkload is one driver run: the verify phase, then either the timed
// end-to-end phases or the traced run and the layer replays. seconds is split
// evenly between the phases' reps, warm-ups included.
func runWorkload(sp *spec, seed int64, seconds float64, traced bool) outcome {
	b := newBench(sp, seed)
	var t tally
	values := map[string]float64{}
	defs := endToEnd

	verify := b.run(repOpts{phase: phaseVerify})
	t.add("verify", verify)
	setups := []float64{verify.setupS}

	split := func(share float64) (warm, dur time.Duration) {
		total := time.Duration(seconds * share * float64(time.Second))
		warm = 300 * time.Millisecond
		if warm > total/4 {
			warm = total / 4
		}
		return warm, total - warm
	}

	if !traced {
		// Twenty more set-up time samples: systems set up and torn down
		// unused.
		for i := 0; i < 20; i++ {
			s, err := b.setUp()
			if err != nil {
				t.errs = append(t.errs, err)
				break
			}
			setups = append(setups, s)
		}

		// Five closed-loop and five open-loop reps, alternating so that a
		// slow spell of the host falls on both kinds. Those spells last
		// seconds and only ever lower throughput, so sat_mtps is the mean of
		// the best three reps: two disturbed reps of five do not count. The
		// latencies are taken per slice of sliceNs and summarised over the
		// slices of all five reps (about 130): the median as the mean of the
		// middle half of the slices' medians. The tail is different. The
		// host's stalls last a few milliseconds and come a few times a
		// second, so over a whole rep they sit right at the 99th percentile,
		// and a rep's p99 jumps between the program's tail and the stall's
		// length as their share crosses one in a hundred. A slice is either
		// hit or clean, a stall only ever adds latency, and the lower
		// quartile of the slices' p99s reads the clean ones for as long as a
		// quarter of them are.
		const reps = 5
		warm, dur := split(1.0 / (2 * reps))
		var sat, p50, p99 []float64
		for i := 0; i < reps; i++ {
			r := b.run(repOpts{phase: phaseSat, warm: warm, dur: dur})
			t.add("sat", r)
			setups = append(setups, r.setupS)
			sat = append(sat, float64(r.winTuples)/r.winS/1e6)

			r = b.run(repOpts{phase: phaseRate, warm: warm, dur: dur})
			t.add("rate", r)
			setups = append(setups, r.setupS)
			for _, sl := range r.slices {
				if len(sl) >= sliceSamples/2 {
					p50 = append(p50, quantile(sl, 0.5)/1e6)
					p99 = append(p99, quantile(sl, 0.99)/1e6)
				}
			}
		}
		values["sat_mtps"] = meanOfBest(sat, 3)
		values["lat_p50_ms"] = midmean(p50)
		values["lat_p99_ms"] = lowerQuartile(p99)
		values["setup_s"] = midmean(setups)
		values["peak_rss_mb"] = peakRSSMiB()
	} else {
		defs = perLayer
		warm, dur := split(0.25)
		plain := b.run(repOpts{phase: phaseRate, warm: warm, dur: dur})
		t.add("rate", plain)
		tr := b.run(repOpts{phase: phaseRate, warm: warm, dur: dur, traced: true})
		t.add("traced", tr)
		sat := b.run(repOpts{phase: phaseSat, warm: warm, dur: dur, mem: true})
		t.add("sat", sat)

		if tr.trace != nil && tr.winTuples > 0 {
			layerMetrics(values, tr, b.workers)
			if err := tr.trace.write(sp.name); err != nil {
				t.errs = append(t.errs, err)
			}
		}
		if err := b.replayLayers(values); err != nil {
			t.errs = append(t.errs, fmt.Errorf("layer replays: %w", err))
			t.failed = t.attempted
		}
		values["verify_s"] = verify.wallS
		gt := float64(plain.winTuples) / 1e9
		values["proc.user_s_per_gtuple"] = plain.user / gt
		values["proc.sys_s_per_gtuple"] = plain.sys / gt
		st := float64(sat.winTuples)
		values["proc.alloc_b_per_tuple"] = float64(sat.mem1.TotalAlloc-sat.mem0.TotalAlloc) / st
		values["proc.mallocs_per_ktuple"] = float64(sat.mem1.Mallocs-sat.mem0.Mallocs) / st * 1e3
		values["proc.gc_cycles"] = float64(sat.mem1.NumGC - sat.mem0.NumGC)
		values["proc.gc_pause_ms"] = float64(sat.mem1.PauseTotalNs-sat.mem0.PauseTotalNs) / 1e6
		untraced := quantile(plain.lat, 0.5) / 1e6
		values["trace.untraced_lat_p50_ms"] = untraced
		// The tail over one whole rep, host stalls included: what
		// lat_p99_ms leaves out by reading clean slices.
		values["trace.untraced_lat_p99_ms"] = quantile(plain.lat, 0.99) / 1e6
		values["trace.overhead_pct"] = 100 * (values["trace.lat_p50_ms"] - untraced) / untraced
	}

	res := result{
		Correct:   len(t.errs) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return outcome{res, t.errs, verify}
}
