// Command saber-run executes a CQL query over one of the built-in
// workload generators and prints a sample of the result stream plus
// throughput statistics — or, with -bql, boots a whole multi-query
// catalog from a BQL script.
//
// Usage:
//
//	saber-run -stream cm -query 'select timestamp, category, sum(cpu) as totalCpu
//	                             from TaskEvents [range 60 slide 1] group by category'
//	saber-run -stream syn -mb 32 -gpu=false -query 'select * from Syn [rows 1024] where a3 < 256'
//	saber-run -bql examples/quickstart.bql -metrics-addr 127.0.0.1:8080
//
// Streams: syn (Syn), cm (TaskEvents), sg (SmartGridStr), lrb
// (PosSpeedStr).
//
// In -bql mode the script declares the sources, sinks and streams
// (CREATE SOURCE / CREATE SINK / CREATE STREAM ... AS SELECT ...); the
// admin endpoint additionally serves GET /catalog and POST /catalog/ddl
// so objects can be created, paused, resumed and dropped while the
// engine runs. With -checkpoint-dir, the catalog's statement log rides
// in every epoch and a restart rebuilds the exact registered query set,
// resuming generated sources at their saved cursors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"saber"
	"saber/internal/ingest"
	"saber/internal/workload"
)

func main() {
	var (
		queryText = flag.String("query", "", "CQL query text (required unless -bql is given)")
		bqlFile   = flag.String("bql", "", "boot a multi-query catalog from this BQL script instead of -query/-stream; DDL can then be applied live via the admin endpoint")
		stream    = flag.String("stream", "syn", "input stream: syn | cm | sg | lrb")
		mb        = flag.Int("mb", 8, "input volume in MiB")
		useGPU    = flag.Bool("gpu", true, "attach the simulated GPGPU")
		workers   = flag.Int("workers", 15, "CPU worker threads")
		scale     = flag.Float64("scale", 1, "model time scale")
		sample    = flag.Int("sample", 5, "result rows to print")
		native    = flag.Bool("native", false, "run at native speed (no performance model)")

		metricsAddr   = flag.String("metrics-addr", "", "serve the admin endpoint (/varz, /metrics, /traces, /debug/pprof) on this address, e.g. 127.0.0.1:8080; empty disables it")
		statsInterval = flag.Duration("stats-interval", 0, "print a one-line metrics summary to stderr at this interval; 0 disables it")

		latencySLO = flag.Duration("latency-slo", 0, "enable adaptive task sizing (dynamic ϕ) targeting this end-to-end p99 latency, e.g. 50ms; 0 keeps ϕ fixed")
		minPhi     = flag.Int("min-task-size", 0, "adaptive ϕ lower bound in bytes (0 selects 4 KiB); needs -latency-slo")
		maxPhi     = flag.Int("max-task-size", 0, "adaptive ϕ upper bound in bytes (0 selects 4 MiB); needs -latency-slo")

		ckptDir      = flag.String("checkpoint-dir", "", "enable epoch checkpointing to this directory; on startup the engine restores from the newest valid epoch and resumes the generated stream at the saved cursor")
		ckptInterval = flag.Duration("checkpoint-interval", 0, "automatic checkpoint period (0 selects 500ms; negative disables the automatic coordinator); needs -checkpoint-dir")

		maxQueueBytes = flag.Int64("max-queue-bytes", 0, "overload protection: per-query admission budget in bytes; a full queue blocks Insert, or sheds under -shed-policy; 0 leaves the input ring as the only bound")
		shedPolicy    = flag.String("shed-policy", "none", "load shedding when the queue budget binds: none (lossless blocking) | oldest (skip the query's oldest queued task) | weighted (drop arriving chunks probabilistically); needs -max-queue-bytes to actuate")
		srcCredits    = flag.Int("source-credits", 0, "feed over loopback TCP ingest with credit-based flow control: the server advertises this window (tuples) and the source paces itself on the returned grants; 0 feeds in-process")
	)
	flag.Parse()
	if *bqlFile == "" && *queryText == "" {
		fmt.Fprintln(os.Stderr, "saber-run: -query is required (or use -bql)")
		os.Exit(2)
	}
	if *bqlFile != "" && *queryText != "" {
		fmt.Fprintln(os.Stderr, "saber-run: -query and -bql are mutually exclusive")
		os.Exit(2)
	}
	shed, err := saber.ParseShedPolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(2)
	}

	var (
		name   string
		schema *saber.Schema
		gen    func(dst []byte, n int) []byte
	)
	switch *stream {
	case "syn":
		name, schema = "Syn", workload.SynSchema
		g := workload.NewSynGen(1)
		g.Groups = 64
		gen = g.Next
	case "cm":
		name, schema = "TaskEvents", workload.CMSchema
		gen = workload.NewCMGen(1).Next
	case "sg":
		name, schema = "SmartGridStr", workload.SGSchema
		gen = workload.NewSGGen(1).Next
	case "lrb":
		name, schema = "PosSpeedStr", workload.LRBSchema
		gen = workload.NewLRBGen(1, 500).Next
	default:
		fmt.Fprintf(os.Stderr, "saber-run: unknown stream %q\n", *stream)
		os.Exit(2)
	}

	cfg := saber.Config{
		CPUWorkers: *workers,
		Model:      saber.DefaultModel().Scaled(*scale),
		DisablePad: *native,

		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
	}
	// Adaptive sizing and overload protection are armed only when their
	// flags ask for them.
	if *latencySLO > 0 {
		cfg.Adapt = &saber.AdaptConfig{SLO: *latencySLO, MinPhi: *minPhi, MaxPhi: *maxPhi}
	}
	if *maxQueueBytes > 0 || shed != saber.ShedNone {
		cfg.Overload = &saber.OverloadConfig{MaxQueueBytes: *maxQueueBytes, Policy: shed}
	}
	if *useGPU {
		dev := saber.OpenGPU(saber.GPUConfig{Model: cfg.Model})
		defer dev.Close()
		cfg.GPU = dev
	}
	if *bqlFile != "" {
		runBQL(cfg, *bqlFile, *sample, *metricsAddr, *statsInterval)
		return
	}
	eng := saber.New(cfg)
	eng.DeclareStream(name, schema)

	q, err := eng.Query("q", *queryText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(1)
	}
	out := q.OutputSchema()
	fmt.Printf("output schema: %s\n", out)

	var mu sync.Mutex
	printed := 0
	q.OnResult(func(rows []byte) {
		mu.Lock()
		defer mu.Unlock()
		osz := out.TupleSize()
		for i := 0; i+osz <= len(rows) && printed < *sample; i += osz {
			fmt.Printf("  %s\n", out.Format(rows[i:i+osz]))
			printed++
		}
	})

	// The generated stream is deterministic, so after a restore the
	// replayed prefix is simply regenerated and skipped up to the saved
	// cursor — the stand-in for an upstream source resending from the
	// resume offset (see internal/ingest's resume protocol for the TCP
	// equivalent).
	resumeTuples := 0
	if *ckptDir != "" {
		info, err := eng.Restore(*ckptDir)
		switch {
		case err == nil:
			resumeTuples = int(q.InputCursor(0))
			fmt.Fprintf(os.Stderr, "restored epoch %d from %s (resuming at tuple %d", info.Epoch, info.Path, resumeTuples)
			if info.Skipped > 0 {
				fmt.Fprintf(os.Stderr, ", %d corrupt epoch(s) skipped", info.Skipped)
			}
			fmt.Fprintln(os.Stderr, ")")
		case errors.Is(err, saber.ErrNoCheckpoint):
			fmt.Fprintln(os.Stderr, "no checkpoint found — cold start")
		default:
			fmt.Fprintf(os.Stderr, "saber-run: restore: %v\n", err)
			os.Exit(1)
		}
	}

	if err := eng.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(1)
	}

	// SIGTERM/SIGINT stop the feed at the next chunk boundary; the run
	// then drains in-flight work, cuts a final checkpoint (when enabled)
	// and shuts down cleanly. A second signal kills the process the
	// default way.
	var stopping atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "\nsaber-run: %v — draining (signal again to kill)\n", s)
		stopping.Store(true)
		signal.Stop(sigs)
	}()

	if *metricsAddr != "" {
		srv := &http.Server{Addr: *metricsAddr, Handler: eng.MetricsHandler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "saber-run: metrics endpoint: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics endpoint on http://%s (/varz /metrics /traces /debug/pprof)\n", *metricsAddr)
	}
	if *statsInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					printStatsLine(eng, q)
				}
			}
		}()
	}

	tuples := (*mb << 20) / schema.TupleSize()
	data := gen(nil, tuples)
	skip := resumeTuples * schema.TupleSize()
	if skip > len(data) {
		skip = len(data)
	}
	// The feed path: in-process Insert by default, or loopback TCP
	// ingest with credit-based flow control when -source-credits is set
	// (the server's advertised window paces the source to the engine's
	// rate instead of relying on Insert backpressure).
	send := func(chunk []byte) { q.Insert(chunk) }
	closeFeed := func() {}
	var creditWaits func() int64
	if *srcCredits > 0 {
		srv, lerr := ingest.Listen("127.0.0.1:0", ingest.SinkFunc(func(chunk []byte) { q.Insert(chunk) }), schema.TupleSize())
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "saber-run: ingest listen: %v\n", lerr)
			os.Exit(1)
		}
		srv.EnableCredits(int64(*srcCredits))
		srv.RegisterMetrics(eng.Metrics(), "saber.ingest.in0")
		go func() { _ = srv.Serve() }()
		cli, derr := ingest.DialCredits(srv.Addr().String(), schema.TupleSize())
		if derr != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "saber-run: ingest dial: %v\n", derr)
			os.Exit(1)
		}
		send = func(chunk []byte) {
			if serr := cli.Send(chunk); serr != nil {
				fmt.Fprintf(os.Stderr, "saber-run: ingest send: %v\n", serr)
				os.Exit(1)
			}
		}
		creditWaits = cli.CreditWaits
		// Close the sender, then the server — Close waits for buffered
		// frames to drain into the sink, so it must precede Drain.
		closeFeed = func() { cli.Close(); srv.Close() }
		fmt.Fprintf(os.Stderr, "feeding over loopback ingest, credit window %d tuples\n", *srcCredits)
	}

	start := time.Now()
	chunk := 1024 * schema.TupleSize()
	for off := skip; off < len(data) && !stopping.Load(); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		send(data[off:end])
	}
	closeFeed()
	eng.Drain()
	elapsed := time.Since(start)
	if *ckptDir != "" {
		// Final epoch at the drained frontier: a restart replays nothing.
		if err := eng.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "saber-run: final checkpoint: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "final checkpoint persisted (committed %d output bytes)\n", q.Committed())
		}
	}
	eng.Close()

	st := q.Stats()
	fmt.Printf("\nprocessed %.1f MiB in %v (%.3f GB/s measured",
		float64(st.BytesIn)/(1<<20), elapsed.Round(time.Millisecond),
		float64(st.BytesIn)/elapsed.Seconds()/1e9)
	if !*native {
		fmt.Printf(", %.3f GB/s paper-equivalent", float64(st.BytesIn)/elapsed.Seconds()/1e9**scale)
	}
	fmt.Printf(")\ntasks: %d cpu, %d gpu (gpu share %.0f%%); output: %d tuples; avg latency %v\n",
		st.TasksCPU, st.TasksGPU, st.GPUShare()*100, st.TuplesOut, st.AvgLatency.Round(time.Microsecond))
	if *latencySLO > 0 {
		snap := eng.Metrics().Snapshot()
		fmt.Printf("adaptive ϕ: final %d KiB (grow %d, shrink %d, clamped %d over %d ticks)\n",
			eng.TaskSize()>>10,
			snap.Counters["saber.adapt.grow"], snap.Counters["saber.adapt.shrink"],
			snap.Counters["saber.adapt.clamped"], snap.Counters["saber.adapt.ticks"])
	}
	if *maxQueueBytes > 0 || shed != saber.ShedNone {
		fmt.Printf("overload: offered %.1f MiB, shed %d tuples (%d oldest-task, %d at admission), bounded admission waits %d\n",
			float64(st.BytesOffered)/(1<<20),
			st.TuplesShed+st.TuplesShedAdmit, st.TuplesShedOldest, st.TuplesShedAdmit, st.AdmitWaits)
	}
	if creditWaits != nil {
		fmt.Printf("ingest flow control: source blocked on credit grants %d times (window %d tuples)\n",
			creditWaits(), *srcCredits)
	}
}

// printStatsLine emits a one-line live metrics summary to stderr.
func printStatsLine(eng *saber.Engine, q *saber.QueryHandle) {
	snap := eng.Metrics().Snapshot()
	st := q.Stats()
	e2e := snap.Histograms["saber.trace.e2e"]
	fmt.Fprintf(os.Stderr,
		"[stats] in=%.1fMiB out=%d tuples tasks=%d cpu/%d gpu queue=%.0f phi=%.0fKiB latency p50=%v p99=%v shed=%d\n",
		float64(st.BytesIn)/(1<<20), st.TuplesOut, st.TasksCPU, st.TasksGPU,
		snap.Gauges["saber.engine.queue.depth"],
		snap.Gauges["saber.engine.phi"]/1024,
		time.Duration(e2e.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(e2e.Quantile(0.99)).Round(time.Microsecond),
		st.TuplesShed)
}

// runBQL boots a multi-query catalog from a BQL script and runs it until
// every bounded source finishes or a signal arrives. With checkpointing
// enabled, a previous run's newest epoch takes precedence over the
// script: the catalog is rebuilt from the checkpoint's statement log and
// the generated sources resume at their saved cursors.
func runBQL(cfg saber.Config, path string, sample int, metricsAddr string, statsInterval time.Duration) {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(1)
	}
	eng := saber.New(cfg)
	cat, info, err := eng.BootScript(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(1)
	}
	if info != nil {
		fmt.Fprintf(os.Stderr, "restored epoch %d from %s (%d queries", info.Epoch, info.Path, info.Queries)
		if info.Unmatched > 0 {
			fmt.Fprintf(os.Stderr, ", %d unmatched snapshot entries skipped", info.Unmatched)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	l := cat.List()
	fmt.Printf("catalog: %d source(s), %d sink(s), %d stream(s)\n", len(l.Sources), len(l.Sinks), len(l.Streams))

	// Per-stream result sampler.
	var mu sync.Mutex
	for _, si := range l.Streams {
		qh, err := cat.Stream(si.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
			os.Exit(1)
		}
		out := qh.OutputSchema()
		fmt.Printf("  %s: %s\n", si.Name, out)
		name, printed := si.Name, 0
		if err := cat.Tap(name, func(rows []byte) {
			mu.Lock()
			defer mu.Unlock()
			osz := out.TupleSize()
			for i := 0; i+osz <= len(rows) && printed < sample; i += osz {
				fmt.Printf("  [%s] %s\n", name, out.Format(rows[i:i+osz]))
				printed++
			}
		}); err != nil {
			fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
			os.Exit(1)
		}
	}

	if err := eng.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "saber-run: %v\n", err)
		os.Exit(1)
	}
	cat.StartFeeds()

	if metricsAddr != "" {
		srv := &http.Server{Addr: metricsAddr, Handler: eng.AdminHandler(cat)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "saber-run: admin endpoint: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s (/catalog /catalog/ddl /varz /metrics /traces /debug/pprof)\n", metricsAddr)
	}
	if statsInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var in, outTuples, tasks int64
					for _, si := range cat.List().Streams {
						in += si.BytesIn
						outTuples += si.BytesOut
						tasks += si.Tasks
					}
					fmt.Fprintf(os.Stderr, "[stats] streams=%d in=%.1fMiB out=%.1fMiB tasks=%d queue=%d\n",
						len(cat.List().Streams), float64(in)/(1<<20), float64(outTuples)/(1<<20), tasks, eng.QueueLen())
				}
			}
		}()
	}

	// Run until every bounded source finishes, or a signal stops the run
	// early; either way the engine drains and (when enabled) cuts a final
	// checkpoint so a restart resumes exactly where this run stopped.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() { cat.WaitFeeds(); close(done) }()
	start := time.Now()
	select {
	case <-done:
	case s := <-sigs:
		fmt.Fprintf(os.Stderr, "\nsaber-run: %v — draining (signal again to kill)\n", s)
		signal.Stop(sigs)
	}
	cat.Close()
	eng.Drain()
	elapsed := time.Since(start)
	if cfg.CheckpointDir != "" {
		if err := eng.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "saber-run: final checkpoint: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "final checkpoint persisted (catalog statement log included)")
		}
	}
	eng.Close()

	fmt.Printf("\nran %d stream(s) for %v\n", len(cat.List().Streams), elapsed.Round(time.Millisecond))
	for _, si := range cat.List().Streams {
		qh, err := cat.Stream(si.Name)
		if err != nil {
			continue
		}
		st := qh.Stats()
		fmt.Printf("  %-12s in %.1f MiB, out %d tuples, tasks %d cpu / %d gpu, avg latency %v\n",
			si.Name, float64(st.BytesIn)/(1<<20), st.TuplesOut, st.TasksCPU, st.TasksGPU,
			st.AvgLatency.Round(time.Microsecond))
	}
}
