// Package engine is SABER's core: it wires the four processing stages of
// paper §4 — dispatching, scheduling, execution and result handling — into
// a running hybrid stream processing engine over the substrate packages
// (ringbuf, window, exec, gpu, sched, model).
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/adapt"
	"saber/internal/ckpt"
	"saber/internal/exec"
	"saber/internal/fault"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/overload"
	"saber/internal/query"
	"saber/internal/sched"
	"saber/internal/task"
)

// Config tunes the engine. The zero value plus defaults reproduces the
// paper's setup (15 CPU workers, 1 MB query tasks, HLS scheduling).
type Config struct {
	// CPUWorkers is the number of CPU worker threads. Default 15 (the
	// paper's 16-core server keeps one core for dispatch). A negative
	// value means zero CPU workers (GPGPU-only execution; requires GPU).
	CPUWorkers int
	// GPU is the (simulated) GPGPU device; nil runs CPU-only.
	GPU *gpu.Device
	// TaskSize is ϕ, the query task size in bytes. Default 1 MiB.
	TaskSize int
	// InputBufferSize is each input's circular buffer capacity in bytes
	// (power of two). Default max(16 MiB, 16 × TaskSize rounded up).
	InputBufferSize int
	// ResultSlots is the per-query result buffer size (power of two),
	// which must exceed the worker count. Default 256.
	ResultSlots int
	// Policy selects the scheduling policy: "hls" (default), "fcfs" or
	// "static" (with StaticAssign).
	Policy string
	// StaticAssign maps query index → processor for the static policy.
	StaticAssign []sched.Processor
	// SwitchThreshold is HLS's switch threshold in probe-lengths: a task
	// is forced onto the non-preferred class once the preferred one has
	// run this many of that class's per-task service times in a row
	// (sched.HLS). At equal service times that is this many tasks.
	// Default 10.
	SwitchThreshold int
	// MatrixAlpha is the EWMA weight of new throughput observations.
	// Default 0.25.
	MatrixAlpha float64
	// Model is the calibrated performance model; see internal/model.
	// A zero TimeScale selects model.Default(). Set DisablePad to run at
	// native speed instead (correctness tests).
	Model      model.Params
	DisablePad bool

	// MaxTaskRetries bounds how many times a failing task is re-executed
	// before it is quarantined (its window range is recorded as a gap and
	// assembly continues past it). Default 3.
	MaxTaskRetries int
	// GPUTaskTimeout is how long the GPU worker waits for a submitted task
	// before declaring the device hung and failing the task over to the
	// CPU. Default 2s.
	GPUTaskTimeout time.Duration
	// BreakerThreshold is the number of consecutive GPGPU task failures
	// that open the circuit breaker (hybrid hls/fcfs modes only).
	// Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through. Default 50ms.
	BreakerCooldown time.Duration
	// Fault optionally injects plan-execution faults on the CPU path; the
	// GPU device takes its own injector via gpu.Config. nil runs
	// fault-free.
	Fault *fault.Injector

	// Adapt, when non-nil, enables adaptive task sizing: a control loop
	// resizes ϕ within [Adapt.MinPhi, Adapt.MaxPhi] from the engine's
	// trace histograms (see internal/adapt). TaskSize becomes the
	// starting point rather than a constant. The controller requires its
	// own registry view, so engines sharing a Metrics registry must not
	// both enable Adapt.
	Adapt *adapt.Config

	// Overload, when non-nil, enables overload protection: per-query
	// queue-bytes admission budgets, tiered load shedding (see
	// overload.Policy) and a stall watchdog. With Adapt also set, shedding
	// actuates only as the adapt ladder's last rung — when ϕ is pinned at
	// its floor and the tail p99 still violates the SLO; without Adapt it
	// actuates directly on budget pressure. See internal/overload.
	Overload *overload.Config

	// CheckpointDir, when non-empty, enables epoch checkpointing into the
	// given directory (created if missing): periodic crash-consistent
	// snapshots recovery rebuilds from via Restore. See internal/ckpt.
	CheckpointDir string
	// CheckpointInterval is the automatic epoch period. 0 selects the
	// default (500ms) when CheckpointDir is set; a negative value disables
	// the automatic coordinator (epochs are cut only by explicit
	// Checkpoint calls — tests and final-checkpoint-on-shutdown paths).
	CheckpointInterval time.Duration

	// Metrics is the observability registry every engine counter,
	// histogram and mirror registers in. nil gives the engine a private
	// registry (telemetry is always on; its hot-path cost is a few
	// uncontended atomic adds per task). Share one registry across
	// engines only if their query indices do not collide.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.CPUWorkers == 0 {
		c.CPUWorkers = 15
	}
	if c.CPUWorkers < 0 {
		c.CPUWorkers = 0
	}
	if c.TaskSize <= 0 {
		c.TaskSize = 1 << 20
	}
	if c.InputBufferSize <= 0 {
		c.InputBufferSize = 16 << 20
		for c.InputBufferSize < 16*c.TaskSize {
			c.InputBufferSize <<= 1
		}
	}
	if c.ResultSlots <= 0 {
		c.ResultSlots = 256
	}
	// The result buffer is indexed by task ID modulo its size, so round a
	// non-power-of-two request up rather than mis-masking.
	if c.ResultSlots&(c.ResultSlots-1) != 0 {
		v := 1
		for v < c.ResultSlots {
			v <<= 1
		}
		c.ResultSlots = v
	}
	for c.ResultSlots <= c.CPUWorkers+1 {
		c.ResultSlots <<= 1
	}
	if c.Policy == "" {
		c.Policy = "hls"
	}
	if c.SwitchThreshold <= 0 {
		c.SwitchThreshold = 10
	}
	if c.MatrixAlpha <= 0 {
		c.MatrixAlpha = 0.25
	}
	if c.Model.TimeScale == 0 {
		c.Model = model.Default()
	}
	if c.MaxTaskRetries <= 0 {
		c.MaxTaskRetries = 3
	}
	if c.GPUTaskTimeout <= 0 {
		c.GPUTaskTimeout = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 50 * time.Millisecond
	}
	if c.CheckpointDir != "" && c.CheckpointInterval == 0 {
		c.CheckpointInterval = 500 * time.Millisecond
	}
	if c.Overload != nil {
		ov := c.Overload.WithDefaults()
		c.Overload = &ov
	}
	return c
}

// Engine executes registered continuous queries over heterogeneous
// processors.
type Engine struct {
	cfg Config

	// quer is the dense query table, indexed by task.Query. It is
	// copy-on-write behind an atomic pointer so workers index it lock-free
	// while the catalog registers queries into a running engine.
	// Deregistered queries stay in the table as tombstones (dropped flag
	// set) — indices of live tasks and scheduler rows must stay valid
	// forever. regMu serialises every mutation (Register, Deregister,
	// Pause, Resume) and guards byName.
	regMu  sync.Mutex
	quer   atomic.Pointer[[]*registered]
	byName map[string]*registered

	// stmtSource, when set (SetStatementSource), contributes the
	// catalog's DDL statement log to every checkpoint, and switches
	// Restore to catalog mode: snapshot queries with no registered match
	// are skipped instead of refused (the replayed statement log governs
	// the query set).
	stmtSource atomic.Value // func() []string

	queue  *task.Queue
	matrix *sched.Matrix
	policy sched.Policy

	// reg and tracer are the observability spine: every counter in this
	// package lives in reg, and tracer stamps each task's lifecycle (see
	// metrics.go and package obs).
	reg    *obs.Registry
	tracer *obs.Tracer

	// breaker is the GPGPU circuit breaker; nil in single-processor modes
	// and under policies that cannot reroute (static, greedy).
	breaker *sched.Breaker

	// gpuInflight counts tasks currently owned by the GPU worker. CPU
	// workers may only exit once it reaches zero: a failing GPU task is
	// requeued (pinned CPUOnly) even after the queue closed, and someone
	// must still be around to run it.
	gpuInflight atomic.Int64

	// lateWG tracks goroutines waiting on timed-out GPU submissions so a
	// hung device's eventual (discarded) late results are accounted for
	// before Close returns.
	lateWG sync.WaitGroup

	// taskSize is the live ϕ in bytes: initialized from Config.TaskSize
	// and rewritten by SetTaskSize (the adapt controller, or tests
	// exercising mid-stream resizes). The dispatcher reads it on every
	// cut, so a resize takes effect at the next task boundary.
	taskSize atomic.Int64
	// phiFloor is the largest registered tuple size: a cut of fewer
	// bytes would emit zero-tuple tasks and spin the dispatch loop.
	// Atomic because live registration raises it while SetTaskSize reads.
	phiFloor atomic.Int64

	adaptCtl  *adapt.Controller
	adaptStop chan struct{}
	adaptWG   sync.WaitGroup

	// Overload-protection state (see internal/overload and
	// registered.admit). quiesced flips at the start of Drain/Close,
	// which then wake admission: a parked Insert observes it and aborts
	// (its unadmitted remainder accounted as admission-shed) instead of
	// deadlocking shutdown. shedArmed gates the shedding
	// policies: always armed without Adapt, else toggled by the adapt
	// controller's last-rung Overloaded signal.
	quiesced  atomic.Bool
	shedArmed atomic.Bool
	stalls    *obs.Counter
	stallDump atomic.Value // string: latest watchdog postmortem
	watchStop chan struct{}
	watchWG   sync.WaitGroup

	// Checkpoint state (see checkpoint.go): the store opens lazily on the
	// first epoch, the epoch counter continues across Restore, and the
	// automatic coordinator runs between Start and Close.
	ckptOnce  sync.Once
	ckptStore *ckpt.Store
	ckptErr   error
	ckptEpoch atomic.Int64
	ckptStop  chan struct{}
	ckptWG    sync.WaitGroup
	ckm       ckptMetrics

	started atomic.Bool
	stopped atomic.Bool
	workers sync.WaitGroup

	dispatchMu sync.Mutex // serialises the dispatching stage (paper §4.1)
}

// New creates an engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg.withDefaults(),
		byName: make(map[string]*registered),
		queue:  task.NewQueue(),
	}
	e.reg = e.cfg.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.tracer = obs.NewTracer(e.reg, 0)
	e.taskSize.Store(int64(e.cfg.TaskSize))
	e.ckm = newCkptMetrics(e.reg)
	e.stalls = e.reg.Counter("saber.overload.stalls")
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// queries returns the current query table (tombstones included). The
// slice is immutable once published; workers index it lock-free.
func (e *Engine) queries() []*registered {
	if p := e.quer.Load(); p != nil {
		return *p
	}
	return nil
}

// queryAt returns the query registered at dense index i (a task.Query).
func (e *Engine) queryAt(i int) *registered { return e.queries()[i] }

// RegisterOptions carries per-query registration overrides.
type RegisterOptions struct {
	// Overload overrides the engine-wide overload-protection config for
	// this query alone (per-stream WITH (max_queue_bytes=...,
	// shed_policy=...) specs from the BQL frontend). nil inherits
	// Config.Overload.
	Overload *overload.Config
}

// Register compiles and registers a query. Before Start it only extends
// the table; on a running engine it additionally grows the scheduler
// (matrix and HLS rows) and binds the query's metric mirrors, so the
// first Insert on the returned handle dispatches like any other — no
// restart, no disturbance to sibling queries. Live registration is
// refused under the static policy, whose assignment array is fixed at
// Start.
func (e *Engine) Register(q *query.Query) (*Handle, error) {
	return e.RegisterWith(q, RegisterOptions{})
}

// RegisterWith is Register with per-query options.
func (e *Engine) RegisterWith(q *query.Query, opts RegisterOptions) (*Handle, error) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if e.stopped.Load() {
		return nil, fmt.Errorf("engine: Register after Close")
	}
	live := e.started.Load()
	if live && e.cfg.Policy == "static" {
		return nil, fmt.Errorf("engine: cannot register on a running engine under the static policy")
	}
	if _, dup := e.byName[q.Name]; dup {
		return nil, fmt.Errorf("engine: duplicate query %q", q.Name)
	}
	plan, err := exec.Compile(q)
	if err != nil {
		return nil, err
	}
	ov := e.cfg.Overload
	if opts.Overload != nil {
		o := opts.Overload.WithDefaults()
		ov = &o
	}
	cur := e.queries()
	r := newRegistered(e, len(cur), plan, ov)
	if e.cfg.GPU != nil {
		r.prog = e.cfg.GPU.Compile(plan)
	}
	for i := 0; i < plan.NumInputs(); i++ {
		if ts := int64(plan.InputSchema(i).TupleSize()); ts > e.phiFloor.Load() {
			e.phiFloor.Store(ts)
		}
	}
	if live {
		// Size the scheduler for the new index before the handle escapes:
		// no task of this query can reach the queue until the caller holds
		// the handle, so Grow-then-publish is race-free.
		e.matrix.Grow(len(cur) + 1)
		if h, ok := e.policy.(*sched.HLS); ok {
			h.Grow(len(cur) + 1)
		}
	}
	next := make([]*registered, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = r
	e.quer.Store(&next)
	e.byName[q.Name] = r
	if live {
		e.registerQueryMirrors(r)
		e.registerRateMirrors(r.idx)
		// A live-registered query with its own shedding policy arms the
		// actuation gate exactly as an engine-wide config would at Start.
		if ov != nil && ov.Policy != overload.ShedNone && e.cfg.Adapt == nil {
			e.shedArmed.Store(true)
		}
	}
	return &Handle{r: r}, nil
}

// Pause quiesces a query at a task boundary: inserts keep admitting into
// the ring (backpressure applies) but no further tasks are cut, and Pause
// returns only once every already-cut task has drained. Sibling queries
// are untouched. Pausing a paused query is a no-op.
func (e *Engine) Pause(name string) error {
	e.regMu.Lock()
	r, ok := e.byName[name]
	e.regMu.Unlock()
	if !ok {
		return fmt.Errorf("engine: pause: unknown query %q", name)
	}
	if r.paused.Swap(true) {
		return nil
	}
	if e.started.Load() {
		r.awaitTaskBoundary()
	}
	return nil
}

// Resume lifts a Pause and immediately cuts any backlog the rings
// accumulated while paused.
func (e *Engine) Resume(name string) error {
	e.regMu.Lock()
	r, ok := e.byName[name]
	e.regMu.Unlock()
	if !ok {
		return fmt.Errorf("engine: resume: unknown query %q", name)
	}
	if !r.paused.Swap(false) {
		return nil
	}
	if e.started.Load() {
		r.cutBacklog()
	}
	return nil
}

// Deregister drops a query from a running engine: concurrent inserts stop
// admitting (their unadmitted remainder stays with the caller), buffered
// residue is flushed as a final task, every outstanding task drains, open
// windows flush to the sink, and the query's ring memory is released.
// The table entry remains as a tombstone so sibling task indices and
// scheduler rows stay valid; the name becomes reusable immediately.
// Conservation holds at the drop boundary: everything admitted was
// either emitted or accounted shed.
func (e *Engine) Deregister(name string) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	r, ok := e.byName[name]
	if !ok {
		return fmt.Errorf("engine: deregister: unknown query %q", name)
	}
	delete(e.byName, name)
	r.dropped.Store(true)
	r.result.progress.Fire(-1) // a parked Insert holds insMu: let it see dropped
	if e.started.Load() {
		// Flush the sub-ϕ residue. insMu inside dispatchTail serialises
		// against any insert mid-call: it finishes its current chunk, then
		// its next dropped check bails out.
		e.dispatchMu.Lock()
		r.dispatchTail()
		e.dispatchMu.Unlock()
		r.awaitTaskBoundary()
		r.result.flush()
	}
	r.release()
	return nil
}

// SetStatementSource installs fn as the catalog's DDL statement log: its
// result is embedded in every checkpoint so a restart can replay the
// registered statements exactly. fn must be safe to call concurrently
// and must not acquire locks that are held while calling engine
// lifecycle methods (the catalog keeps its log in an atomic value).
// Setting a source also switches Restore to catalog mode: snapshot
// queries with no registered match are skipped, not refused, because the
// replayed statement log governs the query set.
func (e *Engine) SetStatementSource(fn func() []string) { e.stmtSource.Store(fn) }

func (e *Engine) statementSource() func() []string {
	if fn, ok := e.stmtSource.Load().(func() []string); ok {
		return fn
	}
	return nil
}

// Start launches the worker threads. The scheduling policy is fixed at
// this point; queries may still be registered, paused and dropped on the
// running engine (see Register, Pause, Deregister).
func (e *Engine) Start() error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if e.started.Swap(true) {
		return fmt.Errorf("engine: already started")
	}
	n := len(e.queries())
	if n == 0 {
		return fmt.Errorf("engine: no queries registered")
	}
	if e.cfg.CPUWorkers == 0 && e.cfg.GPU == nil {
		return fmt.Errorf("engine: no processors configured")
	}
	gpuCap := 0.0
	if e.cfg.GPU != nil {
		gpuCap = 4 // pipeline depth converts latency into throughput
	}
	e.matrix = sched.NewMatrix(n, 1000, e.cfg.MatrixAlpha, float64(e.cfg.CPUWorkers), gpuCap)
	e.matrix.Notify = e.queue.Wake // rates steer the policy: wake parked workers

	switch e.cfg.Policy {
	case "hls":
		if e.cfg.GPU == nil || e.cfg.CPUWorkers == 0 {
			// A single processor class needs no lookahead.
			e.policy = sched.FCFS{}
		} else {
			h := sched.NewHLS(n, e.matrix, e.cfg.SwitchThreshold)
			// Keep out-of-order execution within the reordering window of
			// the per-query result buffers.
			h.MaxLookahead = e.cfg.ResultSlots / 2
			e.policy = h
		}
	case "fcfs":
		e.policy = sched.FCFS{}
	case "greedy":
		if e.cfg.GPU == nil || e.cfg.CPUWorkers == 0 {
			return fmt.Errorf("engine: greedy policy needs both processor classes")
		}
		e.policy = sched.Greedy{C: e.matrix}
	case "static":
		if len(e.cfg.StaticAssign) != n {
			return fmt.Errorf("engine: static policy needs %d assignments", n)
		}
		e.policy = sched.Static{Assign: e.cfg.StaticAssign}
	default:
		return fmt.Errorf("engine: unknown policy %q", e.cfg.Policy)
	}

	// The circuit breaker only makes sense when failed GPU work can be
	// rerouted: hybrid mode under a policy that lets the CPU absorb it.
	// Static and greedy assignments would starve GPU-pinned queries while
	// the breaker is open, so they run without one.
	if e.cfg.GPU != nil && e.cfg.CPUWorkers > 0 {
		switch e.policy.(type) {
		case *sched.HLS:
			e.breaker = sched.NewBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
			e.policy.(*sched.HLS).Breaker = e.breaker
		case sched.FCFS:
			e.breaker = sched.NewBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
		}
	}
	if e.breaker != nil {
		e.breaker.Notify = e.queue.Wake
	}

	// Seed the fresh matrix with any rates a Restore carried over, so
	// scheduling resumes from the crashed process's learned crossover
	// instead of the uniform prior.
	for _, r := range e.queries() {
		if r.restoredRates[0] > 0 || r.restoredRates[1] > 0 {
			e.matrix.SeedRates(r.idx, r.restoredRates[0], r.restoredRates[1])
		}
	}

	e.registerMirrors()

	if e.cfg.Adapt != nil {
		// The matrix needs to know ϕ from the first task so its rates
		// track the size tasks will actually have.
		e.matrix.SetPhi(int(e.taskSize.Load()))
		e.adaptCtl = adapt.NewController(*e.cfg.Adapt, int(e.taskSize.Load()), e.reg, func(phi int) {
			e.SetTaskSize(phi)
		})
		e.SetTaskSize(e.adaptCtl.Phi()) // fold controller clamping back in
		e.adaptStop = make(chan struct{})
		e.adaptWG.Add(1)
		go e.adaptLoop()
	}

	for i := 0; i < e.cfg.CPUWorkers; i++ {
		e.workers.Add(1)
		go e.cpuWorker()
	}
	if e.cfg.GPU != nil {
		e.workers.Add(1)
		go e.gpuWorker()
	}

	if e.cfg.CheckpointDir != "" && e.cfg.CheckpointInterval > 0 {
		e.ckptStop = make(chan struct{})
		e.ckptWG.Add(1)
		go e.ckptLoop()
	}

	// Without an adapt controller there is no SLO ladder to descend: a
	// configured shedding policy — engine-wide or any query's per-stream
	// override — arms directly on budget pressure. With Adapt, adaptLoop
	// arms it only at the ladder's last rung.
	if e.cfg.Adapt == nil {
		for _, r := range e.queries() {
			if r.ov != nil && r.ov.Policy != overload.ShedNone {
				e.shedArmed.Store(true)
				break
			}
		}
	}
	if e.cfg.Overload != nil {
		e.watchStop = make(chan struct{})
		e.watchWG.Add(1)
		go e.watchLoop()
	}
	return nil
}

// wakeAdmission fires every query's progress signal for a change a parked
// admit or awaitTaskBoundary cannot see through drains.
func (e *Engine) wakeAdmission() {
	for _, r := range e.queries() {
		r.result.progress.Fire(-1)
	}
}

// watchLoop runs the stall watchdog between Start and Close: it probes
// drain progress and, when input is pending but the frontier has not
// advanced for Overload.StallTimeout, counts a stall and captures a
// postmortem trace dump (StallReport).
func (e *Engine) watchLoop() {
	defer e.watchWG.Done()
	ov := e.cfg.Overload
	w := overload.NewWatchdog(ov.StallTimeout)
	tick := time.NewTicker(ov.StallInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.watchStop:
			return
		case now := <-tick.C:
			var p overload.Progress
			for _, r := range e.queries() {
				if r.dropped.Load() {
					continue
				}
				p.Drained += r.result.drained.Load()
				r.bufMu.Lock()
				for i := 0; i < r.plan.NumInputs(); i++ {
					if ring := r.ins[i].ring; ring != nil {
						p.PendingBytes += ring.Size()
					}
				}
				r.bufMu.Unlock()
			}
			p.QueueLen = int64(e.queue.Len())
			if rep, ok := w.Observe(now, p); ok {
				// Publish the postmortem before counting the stall, so a
				// reader that sees the counter move also sees the report.
				e.stallDump.Store(e.formatStall(rep))
				e.stalls.Add(1)
			}
		}
	}
}

// formatStall renders a watchdog report plus the tracer's postmortem
// ring into a human-readable dump.
func (e *Engine) formatStall(rep overload.StallReport) string {
	s := fmt.Sprintf("engine stalled for %v: %d bytes pending, %d tasks queued, drain frontier frozen at %d\nrecent task traces:\n",
		rep.Stalled.Round(time.Millisecond), rep.Last.PendingBytes, rep.Last.QueueLen, rep.Last.Drained)
	for _, tr := range e.tracer.Recent() {
		s += fmt.Sprintf("  %+v\n", tr)
	}
	return s
}

// StallReport returns the most recent watchdog postmortem, or "" when no
// stall has been detected. The saber.overload.stalls counter carries the
// volume.
func (e *Engine) StallReport() string {
	if s, ok := e.stallDump.Load().(string); ok {
		return s
	}
	return ""
}

// adaptLoop ticks the ϕ controller until Close. The controller itself
// is pure; this loop only supplies real time and registry snapshots.
func (e *Engine) adaptLoop() {
	defer e.adaptWG.Done()
	interval := e.cfg.Adapt.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.adaptStop:
			return
		case <-tick.C:
			d := e.adaptCtl.Tick(e.reg.Snapshot())
			// Last rung of the adapt ladder: ϕ pinned at its floor with
			// the tail p99 still over the SLO arms the shedding policy;
			// any recovery disarms it. Without a policy configured the
			// signal is telemetry only (saber.adapt.overloaded).
			if ov := e.cfg.Overload; ov != nil && ov.Policy != overload.ShedNone {
				if !e.shedArmed.Swap(d.Overloaded) && d.Overloaded {
					e.wakeAdmission()
				}
			}
		}
	}
}

// Drain dispatches any buffered partial batches as final tasks, waits for
// the queue to empty and all results to be assembled, then flushes still-
// open windows. Call once, after all Insert calls.
func (e *Engine) Drain() {
	// Flag quiescence and wake admission before taking the dispatch lock:
	// a concurrent Insert parked on backpressure (which holds the ingest
	// lock dispatchTail needs) wakes, observes the flag and aborts, so
	// Drain cannot deadlock behind it. The aborted call's unadmitted
	// remainder is accounted as admission-shed.
	e.quiesced.Store(true)
	e.wakeAdmission()
	e.dispatchMu.Lock()
	for _, r := range e.queries() {
		if r.dropped.Load() {
			continue
		}
		r.dispatchTail()
	}
	e.queue.Close()
	e.dispatchMu.Unlock()

	for _, r := range e.queries() {
		if r.dropped.Load() {
			continue
		}
		r.awaitTaskBoundary()
		r.result.flush()
	}
}

// Close stops the workers and waits for any late results from timed-out
// GPGPU tasks to be collected and discarded. Drain first for a clean
// shutdown; Close alone abandons queued work. Close the engine before
// closing the GPU device — the late-result collectors block on the
// device's pipeline.
func (e *Engine) Close() {
	// As in Drain: unblock any Insert stuck on backpressure before
	// closing the queue, so Close never deadlocks behind a full ring
	// whose consumers are about to exit.
	e.quiesced.Store(true)
	if e.stopped.Swap(true) {
		return
	}
	e.wakeAdmission()
	if e.watchStop != nil {
		close(e.watchStop)
		e.watchWG.Wait()
	}
	if e.adaptStop != nil {
		close(e.adaptStop)
		e.adaptWG.Wait()
	}
	if e.ckptStop != nil {
		close(e.ckptStop)
		e.ckptWG.Wait()
	}
	e.queue.Close()
	e.workers.Wait()
	e.lateWG.Wait()
}

// Matrix exposes the throughput matrix (telemetry, Fig. 16).
func (e *Engine) Matrix() *sched.Matrix { return e.matrix }

// Breaker exposes the GPGPU circuit breaker, or nil when the engine runs
// without one (single-processor modes, static/greedy policies).
func (e *Engine) Breaker() *sched.Breaker { return e.breaker }

// Policy exposes the scheduling policy chosen at Start (telemetry), or
// nil before Start.
func (e *Engine) Policy() sched.Policy { return e.policy }

// QueueLen reports the current task queue depth.
func (e *Engine) QueueLen() int { return e.queue.Len() }

// TaskSize returns the live ϕ in bytes.
func (e *Engine) TaskSize() int { return int(e.taskSize.Load()) }

// SetTaskSize resizes ϕ. The dispatcher reads the new size at its next
// cut, so the change lands on a task boundary and never splits a task
// mid-flight; window boundaries are ϕ-independent, so results are
// byte-identical to a fixed-ϕ run (see the differential tests).
//
// The requested size is clamped to stay runnable: at least one tuple of
// the widest registered input (a smaller cut would emit empty tasks and
// spin the dispatch loop), and at most a quarter of the input ring (a
// larger one could leave the ring too full to ever complete a cut,
// deadlocking Insert's backpressure).
func (e *Engine) SetTaskSize(phi int) int {
	if floor := int(e.phiFloor.Load()); phi < floor {
		phi = floor
	}
	if max := e.cfg.InputBufferSize / 4; phi > max {
		phi = max
	}
	if phi <= 0 {
		phi = e.cfg.TaskSize
	}
	e.taskSize.Store(int64(phi))
	e.wakeAdmission()
	if e.matrix != nil && e.cfg.Adapt != nil {
		e.matrix.SetPhi(phi)
	}
	if e.cfg.GPU != nil {
		e.cfg.GPU.SetBatchHint(phi)
	}
	return phi
}

// observe routes a completion into the throughput matrix, with the
// task's input volume attached so the matrix's ϕ-aware service-time
// fits learn how cost scales with size.
func (e *Engine) observe(q int, p sched.Processor, bytes int64, d time.Duration) {
	if e.matrix != nil {
		e.matrix.ObserveSized(q, p, bytes, d.Seconds())
	}
}
