package engine

import (
	"fmt"

	"saber/internal/fault"
	"saber/internal/obs"
	"saber/internal/sched"
)

// All engine telemetry reports through one obs.Registry under the
// canonical dotted naming scheme (see package obs). Hot-path counters
// (per-task, per-insert) are obs.Counters owned by this package; telemetry
// that leaf subsystems already keep in their own atomics — ring wraps, HLS
// selection counts, breaker state, GPGPU device counters, fault-injection
// budgets — is mirrored with RegisterFunc, evaluated only at snapshot
// time, so mirroring costs nothing while the engine runs.

// qname builds a per-query metric name: saber.engine.q<i>.<suffix>.
func qname(q int, suffix string) string {
	return fmt.Sprintf("saber.engine.q%d.%s", q, suffix)
}

// newStatsCounters binds one query's hot-path counters into the registry.
func newStatsCounters(reg *obs.Registry, q int) statsCounters {
	return statsCounters{
		bytesIn:      reg.Counter(qname(q, "bytes.in")),
		bytesOut:     reg.Counter(qname(q, "bytes.out")),
		tuplesOut:    reg.Counter(qname(q, "tuples.out")),
		tasksCreated: reg.Counter(qname(q, "tasks.created")),
		tasksCPU:     reg.Counter(qname(q, "tasks.cpu")),
		tasksGPU:     reg.Counter(qname(q, "tasks.gpu")),
		latencyNs:    reg.Counter(qname(q, "latency.sum.ns")),
		latencyN:     reg.Counter(qname(q, "latency.count")),

		tasksFailed:      reg.Counter(qname(q, "tasks.failed")),
		tasksRetried:     reg.Counter(qname(q, "tasks.retried")),
		tasksQuarantined: reg.Counter(qname(q, "tasks.quarantined")),
		tuplesShed:       reg.Counter(qname(q, "tuples.shed")),
		gpuFailovers:     reg.Counter(qname(q, "gpu.failovers")),
		gpuTimeouts:      reg.Counter(qname(q, "gpu.timeouts")),
		windowWaits:      reg.Counter(qname(q, "result.window.waits")),
	}
}

// newOverloadCounters binds one query's overload-protection counters
// under saber.overload.q<i>.*. Registered unconditionally (they read 0
// without an Overload config) so dashboards and the harness conservation
// check never need to special-case.
func newOverloadCounters(reg *obs.Registry, q int) overloadCounters {
	pre := fmt.Sprintf("saber.overload.q%d.", q)
	return overloadCounters{
		bytesOffered: reg.Counter(pre + "bytes.offered"),
		shedAdmit:    reg.Counter(pre + "shed.admit.tuples"),
		shedOldest:   reg.Counter(pre + "shed.oldest.tuples"),
		admitWaits:   reg.Counter(pre + "admit.waits"),
		admitRejects: reg.Counter(pre + "admit.rejects"),
	}
}

// Metrics returns the engine's registry. Always non-nil: New creates a
// private registry when Config.Metrics is unset.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Tracer returns the engine's task tracer (per-stage latency histograms
// and the postmortem ring).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// registerMirrors binds snapshot-time mirrors for every subsystem the
// engine wired together at Start. Re-registering (an engine restarted on
// a shared registry) rebinds the funcs to the live instances.
func (e *Engine) registerMirrors() {
	reg := e.reg
	reg.RegisterFunc("saber.engine.queue.depth", func() int64 { return int64(e.queue.Len()) })
	reg.RegisterFunc("saber.engine.gpu.inflight", e.gpuInflight.Load)
	// The live ϕ. Under a fixed configuration this mirrors Config.TaskSize;
	// with Adapt enabled it tracks the controller (which also reports its
	// own view as saber.adapt.phi).
	reg.RegisterFunc("saber.engine.phi", e.taskSize.Load)
	// 1 while the shedding policy may actuate (armed at Start without
	// Adapt, else by the controller's last-rung signal).
	reg.RegisterFunc("saber.overload.active", func() int64 {
		if e.shedArmed.Load() {
			return 1
		}
		return 0
	})

	for _, r := range e.queries() {
		if r.dropped.Load() {
			continue
		}
		e.registerQueryMirrors(r)
		e.registerRateMirrors(r.idx)
	}
	if h, ok := e.policy.(*sched.HLS); ok {
		reg.RegisterFunc("saber.sched.hls.selected", h.Selected)
		reg.RegisterFunc("saber.sched.hls.flips", h.Flips)
	}
	if b := e.breaker; b != nil {
		reg.RegisterFunc("saber.sched.breaker.state", func() int64 { return int64(b.State()) })
		reg.RegisterFunc("saber.sched.breaker.opens", b.Opens)
		reg.RegisterFunc("saber.sched.breaker.closes", b.Closes)
		reg.RegisterFunc("saber.sched.breaker.probes", b.Probes)
		reg.RegisterFunc("saber.sched.breaker.rejected", b.Rejected)
	}

	if d := e.cfg.GPU; d != nil {
		reg.RegisterFunc("saber.gpu.tasks.done", d.TasksCompleted)
		reg.RegisterFunc("saber.gpu.tasks.failed", d.TasksFailed)
		reg.RegisterFunc("saber.gpu.hangs", d.Hangs)
		reg.RegisterFunc("saber.gpu.bytes.moved", d.BytesMoved)
		reg.RegisterFunc("saber.gpu.pipeline.inflight", d.Inflight)
		registerFaultMirrors(reg, d.Injector(), "saber.fault.gpu")
	}
	registerFaultMirrors(reg, e.cfg.Fault, "saber.fault.cpu")
}

// registerQueryMirrors binds one query's snapshot-time mirrors: ring
// gauges plus the result-stage drain counters. Called from
// registerMirrors at Start and directly when a query is registered on a
// running engine.
func (e *Engine) registerQueryMirrors(r *registered) {
	e.bindBufferMirrors(r, false)
	e.reg.RegisterFunc(qname(r.idx, "result.drained"), r.result.drained.Load)
}

// bindBufferMirrors binds one query's ring gauges or,
// with released set, rebinds them to zero functions, dropping the buffer
// references the old closures captured (RegisterFunc replaces in place).
// A dropped query's result-stage and rate mirrors stay bound.
func (e *Engine) bindBufferMirrors(r *registered, released bool) {
	bind := func(name string, fn func() int64) {
		if released {
			fn = func() int64 { return 0 }
		}
		e.reg.RegisterFunc(name, fn)
	}
	for i := 0; i < r.plan.NumInputs(); i++ {
		ring := r.ins[i].ring
		bind(fmt.Sprintf("saber.engine.q%d.in%d.ring.wraps", r.idx, i), ring.Wraps)
		bind(fmt.Sprintf("saber.engine.q%d.in%d.ring.bytes", r.idx, i), ring.Size)
	}
}

// registerRateMirrors binds one query row of the live HLS throughput
// matrix (paper Fig. 16): per-query EWMA task rates on each processor
// class. No-op before the matrix exists (pre-Start registrations are
// covered by registerMirrors).
func (e *Engine) registerRateMirrors(q int) {
	m := e.matrix
	if m == nil {
		return
	}
	e.reg.RegisterFloatFunc(fmt.Sprintf("saber.sched.matrix.q%d.cpu.rate", q), func() float64 { return m.Rate(q, sched.CPU) })
	e.reg.RegisterFloatFunc(fmt.Sprintf("saber.sched.matrix.q%d.gpu.rate", q), func() float64 { return m.Rate(q, sched.GPU) })
}

// registerFaultMirrors exposes one injector's per-site injection and
// decision counts under prefix.<site>. All Injector methods are nil-safe,
// but a nil injector has nothing to report.
func registerFaultMirrors(reg *obs.Registry, in *fault.Injector, prefix string) {
	if in == nil {
		return
	}
	for _, site := range []fault.Site{
		fault.GPUCopyIn, fault.GPUKernel, fault.GPUHang,
		fault.PlanExec, fault.IngestDrop, fault.IngestStall,
	} {
		site := site
		reg.RegisterFunc(prefix+"."+string(site)+".injections", func() int64 { return in.Injections(site) })
		reg.RegisterFunc(prefix+"."+string(site)+".decisions", func() int64 { return in.Decisions(site) })
	}
}
