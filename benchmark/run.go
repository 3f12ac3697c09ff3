package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"saber/internal/engine"
	"saber/internal/gpu"
	"saber/internal/ingest"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/overload"
	"saber/internal/schema"
)

// outDir receives traces, result files and the durable workload's
// checkpoint directories. It is relative to the benchmark's directory, which
// is the working directory under `go run -C benchmark .` and `go test`.
const outDir = "out"

// phase selects how a rep drives the system.
type phase int

const (
	phaseVerify phase = iota // fixed tuple count, closed loop, output checked byte for byte
	phaseSat                 // closed loop, one client sending back to back
	phaseRate                // open loop at the workload's fixed rate
)

// repOpts configures one rep: a fresh system driven through one phase and
// drained. The engine's Drain is one-shot, so every rep sets the system up
// again, which also gives one set-up time sample per rep.
type repOpts struct {
	phase     phase
	warm, dur time.Duration
	// traced turns the benchmark-side spans, the queue-length sampler and
	// the registry snapshots around the measured window on.
	traced bool
	// mem records runtime.MemStats around the measured window.
	mem bool
	// Mutations for the self-test: corrupt one output byte before the
	// checker sees it, or offer one frame without sending it.
	flipByte  int64 // output byte offset; 0 for none
	dropFrame int64 // step whose stream-0 frame is withheld; 0 for none
}

// rep is what one rep measured.
type rep struct {
	setupS  float64
	offered int64 // tuples offered over the whole rep, all streams
	// The measured window: after the warm-up, until the last Send returned.
	winStart  int64
	winTuples int64
	winS      float64
	user, sys float64 // CPU seconds inside the window
	lat       []int64 // ns, one per latency sample inside the window, sorted
	// slices holds the same samples by the slice of the window in which the
	// sink was called, each sorted; the window's last, partial slice is left out.
	slices    [][]int64
	lateMaxNs int64
	wallS     float64 // first frame sent until drained

	final    obs.Snapshot // after Drain
	s0, s1   obs.Snapshot // around the window (traced)
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	trace    *frameTrace
	qlenSum  int64
	qlenN    int64
	qlenMax  int64
	calls    int64 // sink calls
	outRows  int64
	outBytes int64
	// Client-side counters of the durable workload.
	reconnects, resends, creditWaits int64

	err error // a failed check: every tuple of the rep counts as failed
}

// stream is one input of one query: an ingest server in front of the
// engine, and the client connection the generator sends on.
type stream struct {
	q, side int
	poolOff int
	tap     *tap
	srv     *ingest.Server
	served  chan error
	send    func([]byte) error
	close   func() error
	rc      *ingest.ReconnectClient // durable workload only
	sent    int64                   // tuples Send accepted
	offered int64                   // tuples the generator stamped; exceeds sent only under dropFrame
}

// sliceNs is the length of the slices a rate rep's window is cut into for
// the latency metrics, which are computed per slice and summarised over the
// slices of all of a run's reps. The host takes the processor away for a few
// milliseconds at a time, a few times a second: a slice this short is either
// hit or clean, and a quantile over many slices does not depend on how many
// were hit.
const sliceNs = int64(50 * time.Millisecond)

// tap is the ingest.Sink between a server and Handle.InsertInto. It counts
// what arrived and, in traced runs, stamps the engine.insert span.
type tap struct {
	h     *engine.Handle
	side  int
	bytes atomic.Int64
	tr    *streamTrace
}

func (t *tap) Insert(data []byte) {
	if t.tr == nil {
		t.h.InsertInto(t.side, data)
	} else {
		enter := nowNs()
		t.h.InsertInto(t.side, data)
		t.tr.arrive(enter, nowNs())
	}
	t.bytes.Add(int64(len(data)))
}

// system is one set-up instance of a workload.
type system struct {
	sp      *spec
	eng     *engine.Engine
	dev     *gpu.Device
	handles []*engine.Handle
	streams []*stream
	ckptDir string
}

// build sets a workload's system up: compile and register the queries,
// start the engine, listen and dial one connection per stream. mkSink makes
// each query's output sink once its output schema is known.
func build(sp *spec, workers int, tr *frameTrace, mkSink func(q int, out *schema.Schema) func([]byte)) (*system, error) {
	sys := &system{sp: sp}
	cfg := engine.Config{
		CPUWorkers: workers,
		TaskSize:   sp.phi,
		DisablePad: true,
	}
	if sp.hybrid {
		// A vanishing time scale turns every modelled device delay into
		// zero, so the emulated GPGPU costs only the CPU its code burns.
		sys.dev = gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-9)})
		cfg.GPU = sys.dev
		cfg.Policy = "hls"
	}
	if sp.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		sys.ckptDir = dir
		cfg.CheckpointDir = dir
		cfg.CheckpointInterval = 500 * time.Millisecond
		cfg.Overload = &overload.Config{MaxQueueBytes: 8 << 20, Policy: overload.ShedNone}
	}
	sys.eng = engine.New(cfg)
	for qi, q := range sp.queries {
		h, err := sys.eng.Register(q.build())
		if err != nil {
			sys.abort()
			return nil, err
		}
		h.OnResult(mkSink(qi, h.OutputSchema()))
		sys.handles = append(sys.handles, h)
	}
	if err := sys.eng.Start(); err != nil {
		sys.abort()
		return nil, err
	}
	for qi, q := range sp.queries {
		sides := 1
		if q.shape == shapeJoin {
			sides = 2
		}
		for side := 0; side < sides; side++ {
			st := &stream{q: qi, side: side, tap: &tap{h: sys.handles[qi], side: side}}
			// The join's second input replays the pool half a cycle away,
			// so the two windows it pairs are independent draws.
			st.poolOff = side * poolTuples / 2
			if tr != nil {
				st.tap.tr = &tr.streams[len(sys.streams)]
			}
			sys.streams = append(sys.streams, st)
			if err := sys.connect(st); err != nil {
				sys.abort()
				return nil, err
			}
		}
	}
	return sys, nil
}

// connect starts st's ingest server and dials it.
func (sys *system) connect(st *stream) error {
	srv, err := ingest.Listen("127.0.0.1:0", st.tap, tupleSize)
	if err != nil {
		return err
	}
	st.srv = srv
	if sys.sp.durable {
		srv.EnableResume(0)
		srv.EnableCredits(creditWindow)
	}
	srv.RegisterMetrics(sys.eng.Metrics(), fmt.Sprintf("saber.ingest.in%d", len(sys.streams)-1))
	st.served = make(chan error, 1)
	go func() { st.served <- srv.Serve() }()
	addr := srv.Addr().String()
	if sys.sp.durable {
		rc, err := ingest.DialReconnect(addr, ingest.ReconnectConfig{
			Resume: true, Credits: true, TupleSize: tupleSize, Seed: 1,
			ReplayWindow: replayWindow,
		})
		if err != nil {
			return err
		}
		st.rc, st.send, st.close = rc, rc.Send, rc.Close
		return nil
	}
	cli, err := ingest.Dial(addr)
	if err != nil {
		return err
	}
	st.send, st.close = cli.Send, cli.Close
	return nil
}

// abort tears a half-built system down.
func (sys *system) abort() {
	for _, st := range sys.streams {
		if st.close != nil {
			_ = st.close()
		}
		if st.srv != nil {
			_ = st.srv.Close()
			<-st.served
		}
	}
	sys.eng.Close()
	sys.closeDevice()
}

func (sys *system) closeDevice() {
	if sys.dev != nil {
		sys.dev.Close()
	}
	if sys.ckptDir != "" {
		_ = os.RemoveAll(sys.ckptDir)
	}
}

// finish waits until every sent byte has reached the engine, closes the
// connections and servers, and drains the engine. The clients close only
// after the servers have caught up: a credit-mode client that closes with
// unread grants resets the connection under the frames still in flight.
func (sys *system) finish() error {
	var err error
	deadline := time.Now().Add(20 * time.Second)
	for _, st := range sys.streams {
		for st.tap.bytes.Load() < st.sent*tupleSize {
			if time.Now().After(deadline) {
				err = fmt.Errorf("stream %d: %d of %d sent bytes reached the engine",
					st.q*2+st.side, st.tap.bytes.Load(), st.sent*tupleSize)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, st := range sys.streams {
		_ = st.close()
		_ = st.srv.Close()
		if serr := <-st.served; serr != nil && err == nil {
			err = fmt.Errorf("ingest server: %w", serr)
		}
	}
	sys.eng.Drain()
	return err
}

// bench is what outlives a rep: the seed's pool and the per-query row
// counters, which are made once per process and outside any timed section.
type bench struct {
	sp       *spec
	seed     int64
	workers  int
	pool     []byte
	counters []*rowCounter
}

func newBench(sp *spec, seed int64) *bench {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	runtime.GOMAXPROCS(w)
	return &bench{sp: sp, seed: seed, workers: w}
}

func (b *bench) inputs() [2]input {
	return [2]input{{pool: b.pool}, {pool: b.pool, off: poolTuples / 2}}
}

// makeRowCounters builds the expected-row-count tables on first use.
func (b *bench) makeRowCounters() {
	if b.counters == nil {
		for _, q := range b.sp.queries {
			b.counters = append(b.counters, newRowCounter(q, b.inputs()))
		}
	}
}

func (b *bench) frameTuples() int { return b.sp.frame / tupleSize }
func (b *bench) stepTuples() int {
	n := 0
	for _, q := range b.sp.queries {
		n += b.frameTuples()
		if q.shape == shapeJoin {
			n += b.frameTuples()
		}
	}
	return n
}

// setUp sets the workload's system up as a rep does, times it, and tears it
// down unused: a set-up time sample that costs milliseconds, not a rep.
func (b *bench) setUp() (float64, error) {
	t0 := nowNs()
	b.pool = genPool(b.seed, b.sp.groups)
	sys, err := build(b.sp, b.workers, nil, func(int, *schema.Schema) func([]byte) { return func([]byte) {} })
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	s := float64(nowNs()-t0) / 1e9
	sys.abort()
	b.pool = nil
	runtime.GC()
	return s, nil
}

// sliceSamples is the latency sample count a rate rep aims for per slice and
// query, so that a slice's p99 is not its maximum.
const sliceSamples = 200

// maxBehindNs is how far an open-loop generator may fall behind its schedule
// before the rep is abandoned as failed.
const maxBehindNs = int64(2 * time.Second)

// run performs one rep.
func (b *bench) run(o repOpts) *rep {
	sp := b.sp
	r := &rep{}
	ft := int64(b.frameTuples())
	nStreams := b.stepTuples() / int(ft)

	// How many steps the rep sends. Verify and rate reps send a fixed
	// count, so their task and row counts repeat exactly; a sat rep sends
	// until its time is up.
	var sched schedule
	var warmSteps, steps int64
	switch o.phase {
	case phaseVerify:
		steps = verifyTuples / ft
	case phaseRate:
		sched = newSchedule(0, sp.rate, b.stepTuples(), int(ft))
		warmSteps = (int64(o.warm) + sched.periodNs - 1) / sched.periodNs
		steps = warmSteps + (int64(o.dur)+sched.periodNs/2)/sched.periodNs
	}

	if o.traced {
		r.trace = newFrameTrace(nStreams, steps, ft)
	}

	// Set-up: pool, queries, engine, connections. It ends when the first
	// frame can be sent.
	setup0 := nowNs()
	b.pool = genPool(b.seed, sp.groups)
	var lats []*latSink
	var checks []*checker
	sys, err := build(sp, b.workers, r.trace, func(qi int, out *schema.Schema) func([]byte) {
		q := sp.queries[qi]
		if o.phase == phaseVerify {
			c := &checker{ref: newReference(q, out, b.inputs(), verifyTuples), osz: out.TupleSize()}
			if qi == 0 {
				c.flip = o.flipByte
			}
			checks = append(checks, c)
			return c.onResult
		}
		s := &latSink{osz: out.TupleSize(), tsOff: [2]int{out.Offset(0), -1}}
		if q.shape == shapeJoin {
			s.tsOff[1] = out.Offset(out.IndexOf("ts2"))
		}
		if o.phase == phaseRate {
			// Two samples per sink call, the first and the last row. Where
			// a slice then holds fewer than sliceSamples, evenly strided
			// rows of each call are sampled too.
			tasks := steps * int64(b.stepTuples()) * tupleSize / int64(sp.phi) / int64(len(sp.queries))
			perSlice := tasks * sliceNs / (steps * sched.periodNs)
			s.perCall = 2
			if perSlice*2 < sliceSamples {
				s.perCall = int(sliceSamples / max(perSlice, 1))
			}
			s.samples = make([]sample, 0, (tasks+64)*int64(s.perCall)*2)
		}
		if r.trace != nil {
			s.done = r.trace.completer(qi, sp)
		}
		lats = append(lats, s)
		return s.onResult
	})
	if err != nil {
		r.err = fmt.Errorf("set-up: %w", err)
		return r
	}
	r.setupS = float64(nowNs()-setup0) / 1e9
	b.makeRowCounters()

	// mark reads the clocks at the two ends of the measured window.
	var sentAtStart int64
	var u0, s0 float64
	// Window tuples are counted where the engine admits them (InsertInto
	// returned), not where Send accepts them: on a slow workload the socket
	// buffers between the two drain in bursts of tens of milliseconds,
	// which would land on the window's edges as noise.
	sentSoFar := func() (n int64) {
		for _, st := range sys.streams {
			n += st.tap.bytes.Load() / tupleSize
		}
		return n
	}
	markStart := func() {
		if o.mem {
			runtime.ReadMemStats(&r.mem0)
		}
		if o.traced {
			r.s0 = sys.eng.Metrics().Snapshot()
		}
		sentAtStart = sentSoFar()
		u0, s0 = cpuTimes()
		r.winStart = nowNs()
	}
	markEnd := func() {
		end := nowNs()
		u1, s1 := cpuTimes()
		r.winS = float64(end-r.winStart) / 1e9
		r.winTuples = sentSoFar() - sentAtStart
		r.user, r.sys = u1-u0, s1-s0
		if o.traced {
			r.s1 = sys.eng.Metrics().Snapshot()
		}
		if o.mem {
			runtime.ReadMemStats(&r.mem1)
		}
	}

	var sendErr error
	send := func(step, due int64) {
		if sendErr != nil {
			return
		}
		for si, st := range sys.streams {
			f := frameOf(b.pool, st.poolOff, int(ft), step)
			stamp(f, step*ft)
			st.offered += ft
			if o.dropFrame != 0 && step == o.dropFrame && si == 0 {
				continue
			}
			var t0 int64
			if r.trace != nil {
				t0 = nowNs()
			}
			if err := st.send(f); err != nil {
				sendErr = fmt.Errorf("send: %w", err)
				return
			}
			if r.trace != nil {
				r.trace.streams[si].sendAt(step, due, t0, nowNs())
			}
			st.sent += ft
		}
	}

	// The queue-length sampler of traced runs: one reading per millisecond.
	stopSampler := func() {}
	if o.traced {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					n := int64(sys.eng.QueueLen())
					r.qlenSum += n
					r.qlenN++
					if n > r.qlenMax {
						r.qlenMax = n
					}
				}
			}
		}()
		stopSampler = func() { close(stop); <-stopped }
	}

	start := nowNs()
	switch o.phase {
	case phaseVerify:
		markStart()
		for step := int64(0); step < steps; step++ {
			send(step, 0)
		}
		markEnd()
	case phaseSat:
		warmEnd := start + int64(o.warm)
		end := warmEnd + int64(o.dur)
		marked := false
		for step := int64(0); sendErr == nil; step++ {
			now := nowNs()
			if !marked && now >= warmEnd {
				markStart()
				marked = true
			}
			if now >= end {
				break
			}
			send(step, now)
		}
		markEnd()
	case phaseRate:
		sched.t0 = start
		var lastLate int64
		r.lateMaxNs = pace(realClock{}, sched, steps, func(step, due int64) {
			if step == warmSteps {
				markStart()
			}
			if lastLate = nowNs() - due; lastLate > maxBehindNs && sendErr == nil {
				// The system cannot take the fixed rate: stop offering, so
				// an overloaded rep ends in seconds rather than minutes.
				sendErr = fmt.Errorf("generator fell %.0f ms behind schedule at step %d of %d", float64(lastLate)/1e6, step, steps)
			}
			send(step, due)
		})
		markEnd()
		if lastLate > int64(100*time.Millisecond) {
			r.err = fmt.Errorf("generator ended %.1f ms behind schedule", float64(lastLate)/1e6)
		}
	}
	stopSampler()

	ferr := sys.finish()
	r.wallS = float64(nowNs()-start) / 1e9
	r.final = sys.eng.Metrics().Snapshot()
	var stats []engine.Stats
	for _, h := range sys.handles {
		stats = append(stats, h.Stats())
	}
	for _, st := range sys.streams {
		r.offered += st.offered
		if st.rc != nil {
			r.reconnects += st.rc.Reconnects()
			r.resends += st.rc.Resends()
			r.creditWaits += st.rc.CreditWaits()
		}
	}
	sys.eng.Close()
	sys.closeDevice()

	// Checks every rep must pass. The first failure is kept.
	fail := func(format string, a ...any) {
		if r.err == nil {
			r.err = fmt.Errorf(format, a...)
		}
	}
	if sendErr != nil {
		fail("%v", sendErr)
	}
	if ferr != nil {
		fail("%v", ferr)
	}
	for qi := range sp.queries {
		var offered, perInput int64
		for _, st := range sys.streams {
			if st.q == qi {
				offered += st.offered
				perInput = st.offered
			}
		}
		stq := stats[qi]
		if stq.BytesIn != offered*tupleSize {
			fail("query %d: engine admitted %d bytes of %d offered", qi, stq.BytesIn, offered*tupleSize)
		}
		if stq.TuplesShed != 0 || stq.TuplesShedAdmit != 0 || stq.TasksQuarantined != 0 {
			fail("query %d: %d tuples shed, %d at admission, %d tasks quarantined",
				qi, stq.TuplesShed, stq.TuplesShedAdmit, stq.TasksQuarantined)
		}
		want := b.counters[qi].rows(perInput)
		var got int64
		if o.phase == phaseVerify {
			got = checks[qi].rows
			if err := checks[qi].finish(); err != nil {
				fail("query %d: %v", qi, err)
			}
		} else {
			got = lats[qi].rows
			r.calls += lats[qi].calls
			r.outBytes += lats[qi].bytes
			if lats[qi].dropped > 0 {
				fail("query %d: %d latency samples did not fit", qi, lats[qi].dropped)
			}
		}
		r.outRows += got
		if got != want || stq.TuplesOut != want {
			fail("query %d: %d output rows (engine counts %d), expected %d for %d tuples per input",
				qi, got, stq.TuplesOut, want, perInput)
		}
	}
	if n := frameErrors(r.final); n != 0 {
		fail("%d ingest frame errors", n)
	}
	if a, z := r.final.Counters["saber.trace.started"], r.final.Counters["saber.trace.finished"]; a != z {
		fail("%d task traces started, %d finished", a, z)
	}

	if o.phase == phaseRate {
		r.slices = make([][]int64, int64(r.winS*1e9)/sliceNs)
		for _, s := range lats {
			for _, sm := range s.samples {
				if sm.t < r.winStart {
					continue
				}
				l := sm.t - sched.dueSeq(sm.seq)
				r.lat = append(r.lat, l)
				if i := (sm.t - r.winStart) / sliceNs; i < int64(len(r.slices)) {
					r.slices[i] = append(r.slices[i], l)
				}
			}
		}
		sortNs(r.lat)
		full := 0
		for _, sl := range r.slices {
			sortNs(sl)
			if len(sl) >= sliceSamples/2 {
				full++
			}
		}
		if full == 0 {
			fail("no slice of the window has the %d latency samples its p99 needs", sliceSamples/2)
		}
	}
	// Start the next rep from a collected heap, so that what one rep left
	// behind does not decide when the next one's collections fall.
	b.pool = nil
	runtime.GC()
	return r
}

// frameErrors sums the frames the ingest servers rejected or lost. Their
// conn.errors counter is left out: a credit-mode client always closes with
// grants unread, which resets the connection after the last frame and counts
// as one; a connection lost mid-stream shows as missing bytes or a reconnect.
func frameErrors(s obs.Snapshot) (n int64) {
	for _, k := range []string{".frames.empty", ".frames.oversize", ".frames.ragged", ".deadline.drops", ".resume.gaps"} {
		n += int64(delta{b: s}.counter("saber.ingest.", k))
	}
	return n
}

func sortNs(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// lowerQuartile of unsorted values (nearest rank); it sorts a copy.
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/4]
}

// meanOfBest is the mean of the n highest of the values.
func meanOfBest(v []float64, n int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n < len(s) {
		s = s[len(s)-n:]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(max(len(s), 1))
}

// midmean is the mean of the middle half of the values. Like the median it
// ignores disturbed values on either side; unlike it, it averages what is
// left, so it does not jump where the values fall into two groups.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
