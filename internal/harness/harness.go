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
// Run is the one runner. A plain run feeds the stream into one engine;
// the crash phase (Config.Crash) kills that engine mid-stream and
// finishes the stream on a second engine restored from its checkpoint;
// the churn phase (Config.Churn) replaces the feed with a catalog whose
// query set changes through live DDL. The stream oracle (invariants.go)
// derives every query's expected output from the seeded input, so no run
// compares against a second engine.
//
// Every run is deterministic given Config.Seed (jitter is derived from
// tuple content, not wall clock), so a failing run reproduces with
//
//	go test ./internal/harness/ -run <Test> -harness.seed=<seed>
//
// Subsystems expose their invariants through the inv.Checker contract
// (internal/inv); the harness polls every checker the engine aggregates.
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
	"saber/internal/query"
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

// Fixed run parameters.
const (
	// pollInterval is the invariant poller's period.
	pollInterval = 200 * time.Microsecond
	// maxChunkTuples bounds the seeded random feed chunk size.
	maxChunkTuples = 300
	// feedTick is the pacing tick of a PacedRate feed, and feedFor the
	// paced schedule's length before it repeats.
	feedTick = time.Millisecond
	feedFor  = 2 * time.Second
)

// Config tunes one harness run. The zero value is not runnable; Run
// applies the defaults.
type Config struct {
	// Seed drives every random choice: stream payloads, feed chunking,
	// the crash point, the churn schedule and the jitter workload's
	// delays.
	Seed int64
	// Workload selects the query shape: WorkloadPassthrough (default),
	// WorkloadJitter, WorkloadAgg or WorkloadAggTime.
	Workload string
	// Tuples is the number of input tuples per query. Default 50000.
	Tuples int
	// Queries is the number of identical queries registered and fed
	// concurrently. Default 1; a crash run has one.
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
	// MutateOutput, when set, rewrites every output chunk before it
	// reaches the stream oracle. It exists for harness self-tests:
	// injecting a reorder/corruption here proves the invariants can
	// catch the bug class they claim to. In a crash run the committed
	// prefix reaches it as one chunk, before any recovered output.
	MutateOutput func(chunk []byte) []byte
	// Crash, when set, kills the engine mid-stream and finishes the
	// stream on a restored one.
	Crash *CrashPhase
	// Churn, when set, runs the catalog churn phase in place of the
	// workload feed.
	Churn *ChurnPhase
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
	if c.Engine.CPUWorkers == 0 {
		c.Engine.CPUWorkers = 4
	}
	if c.Engine.TaskSize <= 0 {
		c.Engine.TaskSize = 1024
	}
	if c.Engine.InputBufferSize <= 0 {
		c.Engine.InputBufferSize = 1 << 14
	}
	c.Engine.DisablePad = true
	c.Engine.Fault = c.Chaos
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.MaxJitter <= 0 {
		c.MaxJitter = 2 * time.Millisecond
	}
	return c
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
	// RingWraps counts input-ring writes that wrapped the backing array
	// (in a crash run, the recovered engine's).
	RingWraps int64
	// BackendFlips counts HLS forced backend switches (hybrid runs).
	BackendFlips int64
	TasksCPU     int64
	TasksGPU     int64
	// InvariantChecks is the number of poller sweeps that ran.
	InvariantChecks int64

	// Fault-tolerance telemetry (chaos runs). In a crash run the task
	// and shed counters sum the crashed and the recovered engine.
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
	IngestResends       int64  // frames replayed from the client's window

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

	// Crash-phase evidence.
	KillChunk int   // feed chunk after which the engine was killed
	Epochs    int64 // checkpoints the crashed engine cut
	// CommittedBytes is the exactly-once output cutoff at the crash;
	// ResumeCursor the tuple index recovery resumed the feed from.
	CommittedBytes int64
	ResumeCursor   int64
	// PreBytes and PostBytes are the committed prefix's and the recovered
	// engine's output sizes.
	PreBytes, PostBytes int64

	// Churn-phase evidence.
	StreamsCreated int // streams created mid-run
	StreamsDropped int // streams dropped mid-run
	Pauses         int // pause/resume cycles applied

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
	if r.KillChunk > 0 {
		s += fmt.Sprintf(" | crash: kill=%d epochs=%d committed=%d cursor=%d pre=%d post=%d reconnects=%d resends=%d",
			r.KillChunk, r.Epochs, r.CommittedBytes, r.ResumeCursor, r.PreBytes, r.PostBytes,
			r.IngestReconnects, r.IngestResends)
	}
	if r.StreamsCreated+r.StreamsDropped+r.Pauses > 0 {
		s += fmt.Sprintf(" | churn: created=%d dropped=%d pauses=%d",
			r.StreamsCreated, r.StreamsDropped, r.Pauses)
	}
	return s
}

// Run executes one harness run to completion and reports what happened.
// It returns an error only for configuration mistakes; invariant
// violations are data, reported in Report.Violations so tests can log
// the seed before failing.
func Run(cfg Config) (*Report, error) {
	if cfg.Churn != nil {
		if err := checkChurn(cfg); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}
	if cfg.Churn != nil {
		return rep, runChurn(cfg, rep)
	}
	if cfg.GPU {
		// The scaled model strips the device's modelled latency, but its
		// emulated kernels still run 4–14× slower per task than the
		// unpadded CPU workers: GPURate is what gives it a share of the
		// work beyond HLS's probes.
		dev := gpu.Open(gpu.Config{SMs: 2, Model: model.Default().Scaled(1e-6), Fault: cfg.Chaos})
		defer dev.Close()
		cfg.Engine.GPU = dev
	}
	runs := make([]*queryRun, cfg.Queries)
	for i := range runs {
		qr, err := newQueryRun(cfg, i)
		if err != nil {
			return nil, err
		}
		runs[i] = qr
	}
	if cfg.Crash != nil {
		if err := runCrash(cfg, runs, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	inst, err := build(cfg.Engine, runs, func(qr *queryRun) func([]byte) { return qr.consume })
	if err != nil {
		return nil, err
	}
	if err := inst.start(cfg); err != nil {
		return nil, err
	}
	stopPoll := poll(inst.eng.Invariants(), &rep.InvariantChecks)

	// Feed every query concurrently in seeded, uneven, tuple-aligned
	// chunks — directly via Insert, or over TCP loopback through the
	// reconnecting ingest client (Ingest mode); Insert's backpressure
	// throttles the feeders naturally either way.
	var servers []*ingest.Server
	var feedErrs []error
	var feedMu sync.Mutex
	var feeders sync.WaitGroup
	for i, qr := range runs {
		h := inst.handles[i]
		send := func(data []byte) error { h.Insert(data); return nil }
		var rc *ingest.ReconnectClient
		if cfg.Ingest {
			srv, err := listen("127.0.0.1:0", cfg, inst.eng, h, i, -1)
			if err != nil {
				return nil, err
			}
			servers = append(servers, srv)
			if rc, err = dial(srv, cfg, i, false); err != nil {
				return nil, err
			}
			send = rc.Send
		}
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			err := feed(cfg, qr.stream, cfg.Seed^int64(i)<<32, send)
			feedMu.Lock()
			defer feedMu.Unlock()
			if err != nil {
				feedErrs = append(feedErrs, fmt.Errorf("query %d feeder: %w", i, err))
			}
			if rc != nil {
				rep.IngestReconnects += rc.Reconnects()
				rep.CreditWaits += rc.CreditWaits()
				rc.Close()
			}
		}()
	}
	feeders.Wait()
	// Ingest mode: all clients have sent and closed; close the servers so
	// every in-flight frame is sunk before the drain barrier.
	for _, srv := range servers {
		srv.Close()
	}
	rep.Violations = append(rep.Violations, feedErrs...)
	inst.eng.Drain()
	rep.Violations = append(rep.Violations, stopPoll()...)
	verify(cfg, inst, runs, rep)
	return rep, nil
}

// queryRun is the run's query i: the workload query every engine of the
// run registers, its seeded input stream and the oracle its output is
// checked against.
type queryRun struct {
	q           *query.Query
	stream      []byte
	fingerprint int64
	checker     streamChecker
	mutate      func([]byte) []byte
}

func newQueryRun(cfg Config, i int) (*queryRun, error) {
	q, err := buildQuery(cfg, fmt.Sprintf("stress-%d", i))
	if err != nil {
		return nil, err
	}
	qr := &queryRun{q: q, mutate: cfg.MutateOutput}
	// Distinct sub-seed per query so concurrent queries do not march in
	// lockstep.
	qr.stream, qr.fingerprint = genStream(cfg.Tuples, cfg.Seed+int64(i)*7919)
	if isAggWorkload(cfg.Workload) {
		qr.checker = &aggChecker{out: q.OutputSchema(), in: qr.stream, window: cfg.WindowSize}
	} else {
		// A shedding run legitimately drops tuples: integrity and order
		// still hold per tuple, but coverage is checked against the shed
		// ledger instead of demanding the full sequence.
		ov := cfg.Engine.Overload
		qr.checker = &tupleChecker{in: qr.stream, shedding: ov != nil && ov.Policy != overload.ShedNone}
	}
	return qr, nil
}

// consume hands one output chunk, after any mutation, to the oracle.
func (qr *queryRun) consume(rows []byte) {
	if qr.mutate != nil {
		rows = qr.mutate(rows)
	}
	qr.checker.consume(rows)
}

// instance is one engine under test with the run's queries registered.
type instance struct {
	eng     *engine.Engine
	handles []*engine.Handle
}

// build creates an engine from ecfg and registers each run's query,
// routing its output to sink(run). The engine is not yet started, so a
// crash run can restore into it first.
func build(ecfg engine.Config, runs []*queryRun, sink func(*queryRun) func([]byte)) (*instance, error) {
	inst := &instance{eng: engine.New(ecfg)}
	for _, qr := range runs {
		h, err := inst.eng.Register(qr.q)
		if err != nil {
			return nil, err
		}
		h.OnResult(sink(qr))
		inst.handles = append(inst.handles, h)
	}
	return inst, nil
}

// start starts the engine and seeds the device's matrix column.
func (inst *instance) start(cfg Config) error {
	if err := inst.eng.Start(); err != nil {
		return err
	}
	if cfg.GPURate > 0 {
		for i := range inst.handles {
			inst.eng.Matrix().SeedRates(i, 0, cfg.GPURate)
		}
	}
	return nil
}

// poll sweeps the checkers every pollInterval, counting sweeps into
// sweeps, until the returned stop is called. stop returns what the
// sweeps found, one violation per checker: a violated invariant stays
// violated and would otherwise flood the log.
func poll(checkers []inv.Checker, sweeps *int64) (stop func() []error) {
	var found []error
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[string]bool)
		for {
			select {
			case <-done:
				return
			case <-time.After(pollInterval):
			}
			*sweeps++
			for _, c := range checkers {
				if err := c.CheckInvariants(); err != nil && !seen[c.InvariantName()] {
					seen[c.InvariantName()] = true
					found = append(found, fmt.Errorf("%s: %w", c.InvariantName(), err))
				}
			}
		}
	}()
	return func() []error {
		close(done)
		wg.Wait()
		return found
	}
}

// chunkSchedule cuts a stream of n bytes into seeded, uneven,
// tuple-aligned [start, end) feed chunks.
func chunkSchedule(seed int64, n int) [][2]int {
	tsz := StreamSchema.TupleSize()
	rnd := rand.New(rand.NewSource(seed))
	var out [][2]int
	for off := 0; off < n; {
		end := min(off+(1+rnd.Intn(maxChunkTuples))*tsz, n)
		out = append(out, [2]int{off, end})
		off = end
	}
	return out
}

// feed sends the whole stream, paced by cfg.PacedRate when set and
// otherwise in the seeded chunk schedule as fast as send returns.
func feed(cfg Config, stream []byte, seed int64, send func([]byte) error) error {
	if cfg.PacedRate != nil {
		// Paced mode: replay the deterministic per-tick tuple schedule,
		// sleeping to each tick boundary. Backpressure may push a tick
		// late; the feeder then runs behind (offered load exceeding
		// absorbed load is exactly the condition the adaptive controller
		// is there to handle).
		tsz := StreamSchema.TupleSize()
		schedule := workload.PaceTuples(cfg.PacedRate, tsz, feedTick, feedFor)
		total := 0
		for _, n := range schedule {
			total += n
		}
		if total > 0 {
			start := time.Now()
			for off, tick := 0, 0; off < len(stream); tick++ {
				if n := min(schedule[tick%len(schedule)]*tsz, len(stream)-off); n > 0 {
					if err := send(stream[off : off+n]); err != nil {
						return err
					}
					off += n
				}
				if d := time.Until(start.Add(time.Duration(tick+1) * feedTick)); d > 0 {
					time.Sleep(d)
				}
			}
			return nil
		}
		// A degenerate all-zero schedule falls through to the unpaced
		// feeder rather than spinning forever.
	}
	for _, c := range chunkSchedule(seed, len(stream)) {
		if err := send(stream[c[0]:c[1]]); err != nil {
			return err
		}
	}
	return nil
}

// listen starts the loopback ingest server at addr that feeds query i's
// handle h. A resume cursor >= 0 arms the resume protocol, greeting
// clients from that tuple.
func listen(addr string, cfg Config, eng *engine.Engine, h *engine.Handle, i int, resume int64) (*ingest.Server, error) {
	srv, err := ingest.Listen(addr, h, StreamSchema.TupleSize())
	if err != nil {
		return nil, err
	}
	if resume >= 0 {
		srv.EnableResume(resume)
	}
	// Generous relative to injected stalls: the deadline is a liveness
	// backstop, not part of the chaos schedule.
	srv.SetReadTimeout(time.Second)
	if cfg.SourceCredits > 0 {
		srv.EnableCredits(int64(cfg.SourceCredits))
	}
	srv.RegisterMetrics(eng.Metrics(), fmt.Sprintf("saber.ingest.in%d", i))
	go func() { _ = srv.Serve() }()
	return srv, nil
}

// dial connects query i's reconnecting feeder to srv.
func dial(srv *ingest.Server, cfg Config, i int, resume bool) (*ingest.ReconnectClient, error) {
	return ingest.DialReconnect(srv.Addr().String(), ingest.ReconnectConfig{
		Seed:      cfg.Seed ^ int64(i),
		Fault:     cfg.Chaos,
		Resume:    resume,
		Credits:   cfg.SourceCredits > 0,
		TupleSize: StreamSchema.TupleSize(),
	})
}

// verify closes a drained engine and runs the end-of-stream verdicts:
// one final invariant sweep, each query's quiesce check, its oracle's
// conservation verdict and the metrics-only ledgers. It adds the
// engine's counters to rep.
func verify(cfg Config, inst *instance, runs []*queryRun, rep *Report) {
	eng := inst.eng
	// Stop the workers before reading stats: Close waits out the
	// late-result collectors of timed-out GPU tasks, so every duplicate
	// discard is counted before the conservation verdicts below.
	eng.Close()
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Errorf(format, args...))
	}
	for _, c := range eng.Invariants() {
		if err := c.CheckInvariants(); err != nil {
			violate("%s (final): %w", c.InvariantName(), err)
		}
	}
	for i, qr := range runs {
		h := inst.handles[i]
		if err := h.CheckQuiesced(); err != nil {
			violate("query %d quiesce: %w", i, err)
		}
		st := h.Stats()
		if tc, ok := qr.checker.(*tupleChecker); ok && tc.shedding {
			// The shed ledger is the checker's coverage baseline: policy gaps
			// (tuples.shed) plus admission drops. Feeding it from the engine's
			// own counters is the point — a leak in the ledger shows up as a
			// conservation violation, not a silently weaker check.
			tc.setShed(st.TuplesShed + st.TuplesShedAdmit)
		}
		qr.checker.finish(int64(cfg.Tuples), qr.fingerprint)
		for _, err := range qr.checker.violations() {
			violate("query %d: %w", i, err)
		}
		rep.TuplesOut += qr.checker.tuplesOut()
		rep.TuplesIn += int64(cfg.Tuples)

		d := h.Debug()
		rep.TasksCreated += d.TasksCreated
		rep.Drained += d.Drained
		rep.OverflowDeliveries += d.OverflowDeliveries
		for _, w := range d.RingWraps {
			rep.RingWraps += w
		}
		rep.BytesOffered += st.BytesOffered
		rep.AdmitWaits += st.AdmitWaits
		rep.TasksCPU += st.TasksCPU
		rep.TasksGPU += st.TasksGPU
		rep.TasksFailed += st.TasksFailed
		rep.GPUFailovers += st.GPUFailovers
		rep.GPUTimeouts += st.GPUTimeouts
		rep.DuplicatesDiscarded += st.DuplicateResults
		addShed(rep, st)
	}
	// Metrics-only conservation: the obs registry alone must prove the
	// run's accounting, without consulting engine internals. At quiesce
	// every task trace that was started has finished, every offered
	// byte was either admitted into the ring or dropped pre-admission by
	// the shedding policy, and — for the 1:1 workloads (passthrough,
	// jitter; agg collapses windows) — every ingested tuple was either
	// emitted or shed with nothing in flight.
	snap := eng.Metrics().Snapshot()
	if started, finished := snap.Counters["saber.trace.started"], snap.Counters["saber.trace.finished"]; started != finished {
		violate("metrics: %d task traces started but %d finished at quiesce", started, finished)
	}
	tsz := int64(StreamSchema.TupleSize())
	for i := range runs {
		in := snap.Counters[fmt.Sprintf("saber.engine.q%d.bytes.in", i)] / tsz
		if !isAggWorkload(cfg.Workload) {
			out := snap.Counters[fmt.Sprintf("saber.engine.q%d.tuples.out", i)]
			shed := snap.Counters[fmt.Sprintf("saber.engine.q%d.tuples.shed", i)]
			if in != out+shed {
				violate("metrics: query %d conservation: %d tuples in != %d out + %d shed", i, in, out, shed)
			}
		}
		offered := snap.Counters[fmt.Sprintf("saber.overload.q%d.bytes.offered", i)] / tsz
		shedAdmit := snap.Counters[fmt.Sprintf("saber.overload.q%d.shed.admit.tuples", i)]
		if offered != in+shedAdmit {
			violate("metrics: query %d admission conservation: %d tuples offered != %d admitted + %d shed at admission",
				i, offered, in, shedAdmit)
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
	if cfg.Engine.Adapt != nil {
		rep.AdaptTicks = snap.Counters["saber.adapt.ticks"]
		rep.AdaptGrows = snap.Counters["saber.adapt.grow"]
		rep.AdaptShrinks = snap.Counters["saber.adapt.shrink"]
		rep.AdaptOverloadTicks = snap.Counters["saber.adapt.overload.ticks"]
		rep.PhiFinal = int64(eng.TaskSize())
	}
}

// addShed adds one engine's retry, quarantine and shed counters to rep.
func addShed(rep *Report, st engine.Stats) {
	rep.TasksRetried += st.TasksRetried
	rep.TasksQuarantined += st.TasksQuarantined
	rep.TuplesShed += st.TuplesShed
	rep.TuplesShedAdmit += st.TuplesShedAdmit
	rep.TuplesShedOldest += st.TuplesShedOldest
}
