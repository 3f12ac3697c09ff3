// Package harness is SABER's concurrency correctness harness: it drives
// the full pipeline — ingest → dispatch → scheduling (HLS/FCFS) →
// CPU/sim-GPU workers → slotted result stage → assembly — under
// adversarial configurations (tiny reordering windows that force the
// overflow map, wrap-heavy ring buffers, content-derived worker jitter,
// forced backend flips) and checks machine-verifiable invariants instead
// of golden outputs: per-tuple checksums, exactly-once sequence coverage,
// output-order monotonicity, tuple conservation, ring-buffer accounting
// and clean end-of-stream flush.
//
// Every run is deterministic given Config.Seed (jitter is derived from
// tuple content, not wall clock), so a failing run reproduces with
//
//	go test ./internal/harness/ -run <Test> -harness.seed=<seed>
//
// Subsystems expose their invariants through the inv.Checker contract
// (internal/inv); the harness polls every checker the engine aggregates
// plus any the caller registers via Config.Extra, so future subsystems
// plug in without touching this package.
package harness

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"saber/internal/engine"
	"saber/internal/fault"
	"saber/internal/gpu"
	"saber/internal/ingest"
	"saber/internal/inv"
	"saber/internal/model"
	"saber/internal/overload"
	"saber/internal/sched"
	"saber/internal/workload"
)

var flagSeed = flag.Int64("harness.seed", 0,
	"override the stress harness seed (0 uses each test's default) to reproduce a failure")

// Seed returns the -harness.seed flag value, or def when the flag is
// unset. Tests route their default seeds through this so any failure's
// reported seed can be replayed from the command line.
func Seed(def int64) int64 {
	if *flagSeed != 0 {
		return *flagSeed
	}
	return def
}

// Config tunes one stress run. The zero value is not runnable; use
// (Config).withDefaults via Run.
type Config struct {
	// Seed drives every random choice: stream payloads, insert chunking
	// and the jitter workload's delays.
	Seed int64
	// Workload selects the query shape: WorkloadPassthrough (default),
	// WorkloadJitter or WorkloadAgg.
	Workload string
	// Tuples is the number of input tuples per query. Default 50000.
	Tuples int
	// Queries is the number of identical queries registered and fed
	// concurrently. Default 1.
	Queries int
	// Engine configures the engine under test. Run defaults CPUWorkers
	// to 4, TaskSize to 1024 (32 tuples: small ϕ maximises task
	// boundaries) and InputBufferSize to 1<<14 (small rings force
	// wrap-heavy operation and backpressure), always runs unpadded, and
	// sets Fault to Chaos. Tiny ResultSlots (e.g. 4) force the overflow
	// map. Adapt resizes ϕ from the live latency histograms while the
	// stress load (and any armed chaos) runs. Overload with a shedding
	// policy is expected to drop tuples under pressure: the harness then
	// swaps the exactly-once passthrough checker for the shed-tolerant
	// one and verifies the conservation ledger instead: offered ==
	// admitted + admission-shed and admitted == out + shed.
	Engine engine.Config
	// WindowSize is the tumbling window size in tuples. Default 64.
	WindowSize int64
	// GPU attaches a simulated GPGPU device (hybrid execution).
	GPU bool
	// GPURate, when positive, seeds every query's GPU throughput-matrix
	// column at this many tasks/s once the engine starts, so HLS begins
	// with the device preferred and it carries work on purpose (natively
	// the device is several times slower per task, so HLS alone would
	// only probe it now and then). +Inf survives the EWMA: the device
	// stays preferred all run, and the CPU class takes failovers, retries
	// and breaker-open degradation. A finite rate is unlearned as device
	// completions arrive, flipping the preference to the CPU mid-stream.
	GPURate float64
	// MaxJitter bounds the jitter workload's per-fragment delay.
	// Default 2ms.
	MaxJitter time.Duration
	// MinProcess puts a deterministic floor under the jitter workload's
	// per-fragment service time. With it the pipeline's capacity has a
	// computable upper bound (CPUWorkers * TaskSize / MinProcess
	// bytes/sec), which is what lets the overload scenarios pace a feed
	// at a known multiple of capacity instead of estimating it from wall
	// clocks. 0 keeps the service time purely jitter-driven.
	MinProcess time.Duration
	// PollInterval is the invariant poller's period. Default 200µs.
	PollInterval time.Duration
	// InsertMaxTuples bounds the seeded random Insert chunk size.
	// Default 300.
	InsertMaxTuples int
	// Chaos arms seeded fault injection across the pipeline: GPU stage
	// faults and hangs, CPU plan-execution errors, and (with Ingest)
	// mid-frame connection drops. nil runs fault-free. The injector's own
	// seed governs which decisions fire; Config.Seed governs the data.
	Chaos *fault.Injector
	// Ingest feeds each query over a real TCP loopback connection through
	// internal/ingest (reconnecting client, read-deadline-guarded server)
	// instead of direct Insert calls — the path chaos disconnects target.
	Ingest bool
	// SourceCredits, with Ingest, arms credit-based flow control on the
	// loopback feed: the server advertises this window (tuples) and the
	// reconnecting client paces itself on the returned grants.
	SourceCredits int
	// PacedRate, when set, paces every feeder at this offered byte rate
	// (e.g. workload.BurstRate) instead of feeding as fast as
	// backpressure allows. The per-tick tuple schedule comes from
	// workload.PaceTuples, so it is deterministic given the profile; the
	// schedule repeats until the stream is exhausted.
	PacedRate workload.RateFunc
	// FeedTick is the pacing tick for PacedRate. Default 1ms.
	FeedTick time.Duration
	// FeedFor bounds the paced schedule's length before it repeats.
	// Default 2s.
	FeedFor time.Duration
	// Extra invariant checkers polled alongside the engine's own —
	// the hook point for future subsystems.
	Extra []inv.Checker
	// MutateOutput, when set, rewrites every output chunk before it
	// reaches the invariant checkers. It exists for harness self-tests:
	// injecting a reorder/corruption here proves the invariants can
	// catch the bug class they claim to.
	MutateOutput func(chunk []byte) []byte
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = WorkloadPassthrough
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tuples <= 0 {
		c.Tuples = 50000
	}
	if c.Queries <= 0 {
		c.Queries = 1
	}
	c.Engine = harnessEngine(c.Engine, 1024, 1<<14, c.Chaos)
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.MaxJitter <= 0 {
		c.MaxJitter = 2 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Microsecond
	}
	if c.InsertMaxTuples <= 0 {
		c.InsertMaxTuples = 300
	}
	if c.PacedRate != nil {
		if c.FeedTick <= 0 {
			c.FeedTick = time.Millisecond
		}
		if c.FeedFor <= 0 {
			c.FeedFor = 2 * time.Second
		}
	}
	return c
}

// harnessEngine fills in the engine settings every runner shares: 4 CPU
// workers and the runner's ϕ and ring size when unset (a zero ring size
// keeps the engine default), native speed, and chaos as the CPU
// fault injector.
func harnessEngine(e engine.Config, taskSize, inputBuf int, chaos *fault.Injector) engine.Config {
	if e.CPUWorkers == 0 {
		e.CPUWorkers = 4
	}
	if e.TaskSize <= 0 {
		e.TaskSize = taskSize
	}
	if e.InputBufferSize <= 0 {
		e.InputBufferSize = inputBuf
	}
	e.DisablePad = true
	e.Fault = chaos
	return e
}

// Report aggregates a run's counters and invariant violations. The
// counters double as evidence that the adversarial configuration really
// exercised the paths it targets (e.g. OverflowDeliveries > 0 proves the
// overflow map saw traffic).
type Report struct {
	Seed      int64
	TuplesIn  int64
	TuplesOut int64
	// TasksCreated and Drained must match after a clean run.
	TasksCreated int64
	Drained      int64
	// OverflowDeliveries counts results that bypassed the slot window.
	OverflowDeliveries int64
	// RingWraps counts input-ring writes that wrapped the backing array.
	RingWraps int64
	// BackendFlips counts HLS forced backend switches (hybrid runs).
	BackendFlips int64
	TasksCPU     int64
	TasksGPU     int64
	// InvariantChecks is the number of poller sweeps that ran.
	InvariantChecks int64

	// Fault-tolerance telemetry (chaos runs).
	FaultsInjected      int64 // decisions where the injector fired
	TasksFailed         int64 // failed execution attempts
	TasksRetried        int64 // attempts requeued for retry
	TasksQuarantined    int64 // tasks abandoned after MaxTaskRetries
	TuplesShed          int64 // input tuples covered by quarantined tasks
	GPUFailovers        int64 // GPU-failed tasks pinned to the CPU class
	GPUTimeouts         int64 // device hangs detected by the task timeout
	DuplicatesDiscarded int64 // deliveries dropped by exactly-once dedup
	BreakerOpens        int64
	BreakerCloses       int64
	BreakerState        string // final breaker state ("" without a breaker)
	IngestReconnects    int64  // successful feeder redials (Ingest runs)

	// Adaptive-ϕ telemetry (Adapt runs).
	AdaptTicks   int64 // controller ticks that saw a trusted signal
	AdaptGrows   int64
	AdaptShrinks int64
	// AdaptOverloadTicks counts ticks that raised the last-rung overload
	// signal (over SLO with ϕ already at the floor) — the condition that
	// arms the shedding policy.
	AdaptOverloadTicks int64
	PhiFinal           int64 // ϕ in bytes when the run quiesced

	// Overload-protection telemetry (Overload runs).
	BytesOffered     int64 // bytes Insert took responsibility for
	TuplesShedAdmit  int64 // tuples dropped before admission
	TuplesShedOldest int64 // admitted tuples cut oldest-first
	AdmitWaits       int64 // Inserts that hit the bounded backpressure wait
	CreditWaits      int64 // ingest sends that blocked on the credit window
	Stalls           int64 // watchdog stall episodes

	// Violations holds every invariant violation observed, polling-time
	// and end-of-stream alike. Empty means the run was clean.
	Violations []error
}

// Err joins the violations into one error, or returns nil for a clean
// run.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("harness(seed=%d): %w", r.Seed, errors.Join(r.Violations...))
}

// String summarises the run's counters for logs.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"seed=%d tuples=%d/%d tasks=%d drained=%d overflow=%d wraps=%d flips=%d cpu=%d gpu=%d checks=%d violations=%d",
		r.Seed, r.TuplesIn, r.TuplesOut, r.TasksCreated, r.Drained, r.OverflowDeliveries,
		r.RingWraps, r.BackendFlips, r.TasksCPU, r.TasksGPU, r.InvariantChecks, len(r.Violations))
	if r.FaultsInjected > 0 || r.BreakerState != "" {
		s += fmt.Sprintf(
			" | chaos: injected=%d failed=%d retried=%d quarantined=%d shed=%d failovers=%d timeouts=%d dups=%d breaker=%s(opens=%d,closes=%d) reconnects=%d",
			r.FaultsInjected, r.TasksFailed, r.TasksRetried, r.TasksQuarantined, r.TuplesShed,
			r.GPUFailovers, r.GPUTimeouts, r.DuplicatesDiscarded,
			r.BreakerState, r.BreakerOpens, r.BreakerCloses, r.IngestReconnects)
	}
	if r.AdaptTicks > 0 {
		s += fmt.Sprintf(" | adapt: ticks=%d grows=%d shrinks=%d phi=%d",
			r.AdaptTicks, r.AdaptGrows, r.AdaptShrinks, r.PhiFinal)
	}
	if r.TuplesShedAdmit+r.TuplesShedOldest+r.AdmitWaits+r.CreditWaits+r.Stalls > 0 {
		s += fmt.Sprintf(" | overload: offered=%dB shed_admit=%d shed_oldest=%d waits=%d credit_waits=%d stalls=%d",
			r.BytesOffered, r.TuplesShedAdmit, r.TuplesShedOldest, r.AdmitWaits, r.CreditWaits, r.Stalls)
	}
	return s
}

// Run executes one stress run to completion and reports what happened.
// It returns an error only for configuration mistakes; invariant
// violations are data, reported in Report.Violations so tests can log
// the seed before failing.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}

	ecfg := cfg.Engine
	var dev *gpu.Device
	if cfg.GPU {
		// The scaled model strips the device's modelled latency, but its
		// emulated kernels still run 4–14× slower per task than the
		// unpadded CPU workers: GPURate is what gives it a share of the
		// work beyond HLS's probes.
		dev = gpu.Open(gpu.Config{SMs: 2, Model: model.Default().Scaled(1e-6), Fault: cfg.Chaos})
		defer dev.Close()
		ecfg.GPU = dev
	}
	eng := engine.New(ecfg)

	type queryRun struct {
		handle      *engine.Handle
		checker     streamChecker
		stream      []byte
		fingerprint int64
	}
	runs := make([]*queryRun, cfg.Queries)
	for i := range runs {
		q, err := buildQuery(cfg, fmt.Sprintf("stress-%d", i))
		if err != nil {
			return nil, err
		}
		h, err := eng.Register(q)
		if err != nil {
			return nil, err
		}
		qr := &queryRun{handle: h}
		// Distinct sub-seed per query so concurrent queries do not march
		// in lockstep.
		qr.stream, qr.fingerprint = genStream(cfg.Tuples, cfg.Seed+int64(i)*7919)
		switch {
		case isAggWorkload(cfg.Workload):
			qr.checker = &aggChecker{out: q.OutputSchema()}
		case ecfg.Overload != nil && ecfg.Overload.Policy != overload.ShedNone:
			// A shedding run legitimately drops tuples: integrity and order
			// still hold per tuple, but coverage is checked against the shed
			// ledger instead of demanding the full sequence.
			qr.checker = &shedChecker{}
		default:
			qr.checker = &passthroughChecker{}
		}
		mutate := cfg.MutateOutput
		checker := qr.checker
		h.OnResult(func(rows []byte) {
			if mutate != nil {
				rows = mutate(rows)
			}
			checker.consume(rows)
		})
		runs[i] = qr
	}

	if err := eng.Start(); err != nil {
		return nil, err
	}
	if cfg.GPURate > 0 {
		for i := range runs {
			eng.Matrix().SeedRates(i, 0, cfg.GPURate)
		}
	}

	// Poll every invariant the engine aggregates — result stages, ring
	// buffers, scheduler, device — plus the caller's, while the stress
	// load runs.
	checkers := append(eng.Invariants(), cfg.Extra...)
	var pollViolations []error
	var pollMu sync.Mutex
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		seen := make(map[string]bool)
		for {
			select {
			case <-pollDone:
				return
			case <-time.After(cfg.PollInterval):
			}
			rep.InvariantChecks++
			for _, c := range checkers {
				if err := c.CheckInvariants(); err != nil {
					pollMu.Lock()
					// One report per checker: a violated invariant stays
					// violated and would otherwise flood the log.
					if !seen[c.InvariantName()] {
						seen[c.InvariantName()] = true
						pollViolations = append(pollViolations,
							fmt.Errorf("%s: %w", c.InvariantName(), err))
					}
					pollMu.Unlock()
				}
			}
		}
	}()

	// Feed every query concurrently in seeded, uneven, tuple-aligned
	// chunks — directly via Insert, or over TCP loopback through the
	// reconnecting ingest client (Ingest mode); Insert's backpressure
	// throttles the feeders naturally either way.
	var servers []*ingest.Server
	var feedErrs []error
	var feedMu sync.Mutex
	var feeders sync.WaitGroup
	var reconnects, creditWaits int64
	for i, qr := range runs {
		var send func([]byte) error
		var cleanup func()
		if cfg.Ingest {
			h := qr.handle
			srv, err := ingest.Listen("127.0.0.1:0", ingest.SinkFunc(func(data []byte) {
				h.Insert(data)
			}), StreamSchema.TupleSize())
			if err != nil {
				return nil, err
			}
			// Generous relative to injected stalls: the deadline is a
			// liveness backstop, not part of the chaos schedule.
			srv.SetReadTimeout(time.Second)
			if cfg.SourceCredits > 0 {
				srv.EnableCredits(int64(cfg.SourceCredits))
			}
			srv.RegisterMetrics(eng.Metrics(), fmt.Sprintf("saber.ingest.in%d", i))
			go func() { _ = srv.Serve() }()
			servers = append(servers, srv)
			rc, err := ingest.DialReconnect(srv.Addr().String(), ingest.ReconnectConfig{
				Seed:      cfg.Seed ^ int64(i),
				Fault:     cfg.Chaos,
				Credits:   cfg.SourceCredits > 0,
				TupleSize: StreamSchema.TupleSize(),
			})
			if err != nil {
				return nil, err
			}
			send = rc.Send
			cleanup = func() {
				feedMu.Lock()
				reconnects += rc.Reconnects()
				creditWaits += rc.CreditWaits()
				feedMu.Unlock()
				rc.Close()
			}
		} else {
			h := qr.handle
			send = func(data []byte) error { h.Insert(data); return nil }
		}
		feeders.Add(1)
		go func(i int, qr *queryRun, send func([]byte) error, cleanup func()) {
			defer feeders.Done()
			if cleanup != nil {
				defer cleanup()
			}
			fail := func(err error) {
				feedMu.Lock()
				feedErrs = append(feedErrs, fmt.Errorf("query %d feeder: %w", i, err))
				feedMu.Unlock()
			}
			tsz := StreamSchema.TupleSize()
			if cfg.PacedRate != nil {
				// Paced mode: replay the deterministic per-tick tuple
				// schedule, sleeping to each tick boundary. Backpressure may
				// push a tick late; the feeder then runs behind (offered load
				// exceeding absorbed load is exactly the condition the
				// adaptive controller is there to handle).
				schedule := workload.PaceTuples(cfg.PacedRate, tsz, cfg.FeedTick, cfg.FeedFor)
				total := 0
				for _, n := range schedule {
					total += n
				}
				if total > 0 {
					start := time.Now()
					tick := 0
					for off := 0; off < len(qr.stream); tick++ {
						n := schedule[tick%len(schedule)] * tsz
						if n > 0 {
							if off+n > len(qr.stream) {
								n = len(qr.stream) - off
							}
							if err := send(qr.stream[off : off+n]); err != nil {
								fail(err)
								return
							}
							off += n
						}
						if d := time.Until(start.Add(time.Duration(tick+1) * cfg.FeedTick)); d > 0 {
							time.Sleep(d)
						}
					}
					return
				}
				// A degenerate all-zero schedule falls through to the
				// unpaced feeder rather than spinning forever.
			}
			rnd := rand.New(rand.NewSource(cfg.Seed ^ int64(i)<<32))
			for off := 0; off < len(qr.stream); {
				n := (1 + rnd.Intn(cfg.InsertMaxTuples)) * tsz
				if off+n > len(qr.stream) {
					n = len(qr.stream) - off
				}
				if err := send(qr.stream[off : off+n]); err != nil {
					fail(err)
					return
				}
				off += n
			}
		}(i, qr, send, cleanup)
	}
	feeders.Wait()
	// Ingest mode: all clients have sent and closed; close the servers so
	// every in-flight frame is sunk before the drain barrier.
	for _, srv := range servers {
		srv.Close()
	}
	rep.IngestReconnects = reconnects
	rep.CreditWaits = creditWaits
	rep.Violations = append(rep.Violations, feedErrs...)
	eng.Drain()

	close(pollDone)
	pollWG.Wait()
	rep.Violations = append(rep.Violations, pollViolations...)

	// Stop the workers before reading stats: Close waits out the
	// late-result collectors of timed-out GPU tasks, so every duplicate
	// discard is counted before the conservation verdicts below.
	eng.Close()

	// End-of-stream: one final invariant sweep, the quiesced-state checks
	// and each stream checker's conservation verdict.
	for _, c := range checkers {
		if err := c.CheckInvariants(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Errorf("%s (final): %w", c.InvariantName(), err))
		}
	}
	for i, qr := range runs {
		if err := qr.handle.CheckQuiesced(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Errorf("query %d quiesce: %w", i, err))
		}
		st := qr.handle.Stats()
		if sc, ok := qr.checker.(*shedChecker); ok {
			// The shed ledger is the checker's coverage baseline: policy gaps
			// (tuples.shed) plus admission drops. Feeding it from the engine's
			// own counters is the point — a leak in the ledger shows up as a
			// conservation violation, not a silently weaker check.
			sc.setShed(st.TuplesShed + st.TuplesShedAdmit)
		}
		qr.checker.finish(int64(cfg.Tuples), qr.fingerprint)
		for _, err := range qr.checker.violations() {
			rep.Violations = append(rep.Violations, fmt.Errorf("query %d: %w", i, err))
		}
		rep.TuplesOut += qr.checker.tuplesOut()
		rep.TuplesIn += int64(cfg.Tuples)

		d := qr.handle.Debug()
		rep.TasksCreated += d.TasksCreated
		rep.Drained += d.Drained
		rep.OverflowDeliveries += d.OverflowDeliveries
		for _, w := range d.RingWraps {
			rep.RingWraps += w
		}
		rep.BytesOffered += st.BytesOffered
		rep.TuplesShedAdmit += st.TuplesShedAdmit
		rep.TuplesShedOldest += st.TuplesShedOldest
		rep.AdmitWaits += st.AdmitWaits
		rep.TasksCPU += st.TasksCPU
		rep.TasksGPU += st.TasksGPU
		rep.TasksFailed += st.TasksFailed
		rep.TasksRetried += st.TasksRetried
		rep.TasksQuarantined += st.TasksQuarantined
		rep.TuplesShed += st.TuplesShed
		rep.GPUFailovers += st.GPUFailovers
		rep.GPUTimeouts += st.GPUTimeouts
		rep.DuplicatesDiscarded += st.DuplicateResults
	}
	// Metrics-only conservation: the obs registry alone must prove the
	// run's accounting, without consulting engine internals. At quiesce
	// every task trace that was started has finished, and — for the 1:1
	// workloads (passthrough, jitter; agg collapses windows) — every
	// ingested tuple was either emitted or shed with nothing in flight.
	snap := eng.Metrics().Snapshot()
	if started, finished := snap.Counters["saber.trace.started"], snap.Counters["saber.trace.finished"]; started != finished {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("metrics: %d task traces started but %d finished at quiesce", started, finished))
	}
	if !isAggWorkload(cfg.Workload) {
		tsz := int64(StreamSchema.TupleSize())
		for i := range runs {
			in := snap.Counters[fmt.Sprintf("saber.engine.q%d.bytes.in", i)] / tsz
			out := snap.Counters[fmt.Sprintf("saber.engine.q%d.tuples.out", i)]
			shed := snap.Counters[fmt.Sprintf("saber.engine.q%d.tuples.shed", i)]
			if in != out+shed {
				rep.Violations = append(rep.Violations,
					fmt.Errorf("metrics: query %d conservation: %d tuples in != %d out + %d shed", i, in, out, shed))
			}
		}
	}
	// Admission-side conservation holds for every workload: each offered
	// byte was either admitted into the ring or dropped pre-admission by
	// the shedding policy, so offered == admitted + admission-shed, in
	// tuples, with nothing unaccounted at quiesce.
	{
		tsz := int64(StreamSchema.TupleSize())
		for i := range runs {
			offered := snap.Counters[fmt.Sprintf("saber.overload.q%d.bytes.offered", i)] / tsz
			in := snap.Counters[fmt.Sprintf("saber.engine.q%d.bytes.in", i)] / tsz
			shedAdmit := snap.Counters[fmt.Sprintf("saber.overload.q%d.shed.admit.tuples", i)]
			if offered != in+shedAdmit {
				rep.Violations = append(rep.Violations,
					fmt.Errorf("metrics: query %d admission conservation: %d tuples offered != %d admitted + %d shed at admission",
						i, offered, in, shedAdmit))
			}
		}
	}

	if hls, ok := eng.Policy().(*sched.HLS); ok {
		rep.BackendFlips = hls.Flips()
	}
	if br := eng.Breaker(); br != nil {
		rep.BreakerOpens = br.Opens()
		rep.BreakerCloses = br.Closes()
		rep.BreakerState = br.State().String()
	}
	if cfg.Chaos != nil {
		rep.FaultsInjected = cfg.Chaos.TotalInjections()
	}
	rep.Stalls = snap.Counters["saber.overload.stalls"]
	if ecfg.Adapt != nil {
		rep.AdaptTicks = snap.Counters["saber.adapt.ticks"]
		rep.AdaptGrows = snap.Counters["saber.adapt.grow"]
		rep.AdaptShrinks = snap.Counters["saber.adapt.shrink"]
		rep.AdaptOverloadTicks = snap.Counters["saber.adapt.overload.ticks"]
		rep.PhiFinal = int64(eng.TaskSize())
	}
	return rep, nil
}
