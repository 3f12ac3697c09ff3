// Command saber-bench regenerates the tables and figures of the SABER
// paper's evaluation (§6).
//
// Usage:
//
//	saber-bench -list
//	saber-bench -experiment fig10a
//	saber-bench -experiment all -scale 20 -mb 16 -workers 15
//
// Output units are paper-equivalent (see internal/bench and DESIGN.md §2:
// measured throughput × time scale). The exit status is 1 when any
// experiment run reports a failed gate condition (adaptive, overload),
// after every report has printed.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"saber/internal/bench"
	"saber/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id, or 'all'")
		scale      = flag.Float64("scale", 0, "model time scale (0 = default)")
		mb         = flag.Int("mb", 0, "data volume per measurement point in MiB (0 = default)")
		workers    = flag.Int("workers", 0, "CPU worker threads (0 = default 15)")
		list       = flag.Bool("list", false, "list experiments and exit")

		metricsAddr = flag.String("metrics-addr", "", "serve the admin endpoint (/varz, /metrics, /debug/pprof) on this address while experiments run; empty disables it")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Scale: *scale, MB: *mb, Workers: *workers}
	if *metricsAddr != "" {
		// One process-wide registry shared by every experiment's engines:
		// counters accumulate across runs, gauges track the newest engine.
		// No tracer is exposed — /traces reports null; latency histograms
		// are visible via /varz and /metrics.
		opts.Metrics = obs.NewRegistry()
		srv := &http.Server{Addr: *metricsAddr, Handler: obs.Handler(opts.Metrics, nil)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "saber-bench: metrics endpoint: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics endpoint on http://%s (/varz /metrics /debug/pprof)\n", *metricsAddr)
	}
	// SIGTERM/SIGINT finish the experiment in flight, then stop — partial
	// tables are worse than none, and the deferred admin-endpoint close
	// still runs. A second signal kills the process the default way.
	var stopping atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "\nsaber-bench: %v — stopping after the current experiment (signal again to kill)\n", s)
		stopping.Store(true)
		signal.Stop(sigs)
	}()

	failed := false
	run := func(e bench.Experiment) {
		start := time.Now()
		rep := e.Run(opts)
		rep.Notes = append(rep.Notes, fmt.Sprintf("experiment wall time: %v", time.Since(start).Round(time.Millisecond)))
		rep.Print(os.Stdout)
		failed = failed || len(rep.Failures) > 0
	}

	if *experiment == "all" {
		for _, e := range bench.All() {
			if stopping.Load() {
				fmt.Fprintln(os.Stderr, "saber-bench: interrupted — remaining experiments skipped")
				break
			}
			run(e)
		}
	} else {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "saber-bench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(1)
		}
		run(e)
	}
	if failed {
		os.Exit(1)
	}
}
