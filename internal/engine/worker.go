package engine

import (
	"fmt"
	"time"

	"saber/internal/exec"
	"saber/internal/fault"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/sched"
	"saber/internal/task"
)

// cpuWorker is one CPU worker thread: it runs the full task lifecycle —
// schedule, execute, store result, assemble, emit — per paper §4's worker
// model, then pads the execution to the calibrated model's duration so
// the machine reproduces the paper's performance surface.
//
// A failing task (plan error, injected fault, or a GPGPU task failed over
// to this class) goes through failTask: bounded retries, then quarantine.
// The worker may only exit once no GPU task is in flight — a device
// failure requeues its task here even after the queue has closed.
//
// With nothing to run it parks on its class's Idle signal, whose
// generation it read before asking the policy: whatever can change the
// answer fires it.
func (e *Engine) cpuWorker() {
	defer e.workers.Done()
	idle := e.queue.Idle(int(sched.CPU))
	for {
		gen := idle.Gen()
		t := e.policy.Next(e.queue, sched.CPU)
		if t == nil {
			if e.stopped.Load() || e.queue.Closed() && e.queue.Len() == 0 && e.gpuInflight.Load() == 0 {
				return
			}
			idle.Park(gen)
			continue
		}
		r := e.queryAt(t.Query)
		start := time.Now()
		t.Trace.SetStage(obs.StageQueue, time.Duration(start.UnixNano()-t.Created))
		res := r.plan.NewResult()
		err := r.plan.Process(t.In, res)
		if err == nil && e.cfg.Fault.Decide(fault.PlanExec) {
			err = fault.Errorf(fault.PlanExec, "injected plan failure (task %d, attempt %d)", t.ID, t.Attempts+1)
		}
		if err != nil {
			r.plan.ReleaseResult(res)
			e.failTask(t, sched.CPU, err)
			continue
		}
		elapsed := e.padCPU(r, t, res, start)
		t.Trace.SetProc(obs.ProcCPU)
		t.Trace.SetStage(obs.StageExecCPU, elapsed)
		e.observe(t.Query, sched.CPU, taskBytes(r, t), elapsed)
		if r.result.deliver(t, res) {
			r.stats.tasksCPU.Add(1)
		}
	}
}

// failTask handles one failed execution attempt: record it, pin a
// GPU-failed task to the CPU class, then either requeue for another
// attempt or — once MaxTaskRetries attempts have failed — quarantine the
// task by depositing a gap so assembly continues past its window range
// instead of wedging the drain frontier.
func (e *Engine) failTask(t *task.Task, p sched.Processor, err error) {
	r := e.queryAt(t.Query)
	r.stats.tasksFailed.Add(1)
	r.recordFailure(err)
	t.Attempts++
	if p == sched.GPU && e.cfg.CPUWorkers > 0 {
		t.CPUOnly = true
		r.stats.gpuFailovers.Add(1)
	}
	if int(t.Attempts) >= e.cfg.MaxTaskRetries {
		if r.result.deliverGap(t) {
			r.stats.tasksQuarantined.Add(1)
			r.stats.tuplesShed.Add(int64(taskTuples(r, t)))
		}
		return
	}
	r.stats.tasksRetried.Add(1)
	e.queue.Requeue(t)
}

// padCPU stretches the task to the model's CPU duration; the measured
// output selectivity scales the modelled per-tuple work (cheap when the
// guard predicate rejects most tuples, as in Fig. 16).
func (e *Engine) padCPU(r *registered, t *task.Task, res *exec.TaskResult, start time.Time) time.Duration {
	tuples := taskTuples(r, t)
	if e.cfg.DisablePad {
		return time.Since(start)
	}
	sel := measuredSelectivity(r, res, tuples)
	return model.Pad(start, e.cfg.Model.CPUTaskTime(r.cost, tuples, sel))
}

func taskTuples(r *registered, t *task.Task) int {
	n := 0
	for i := 0; i < r.plan.NumInputs(); i++ {
		n += len(t.In[i].Data) / r.plan.InputSchema(i).TupleSize()
	}
	return n
}

// taskBytes is the task's total input volume — the x-axis of the
// matrix's ϕ-aware service-time fits.
func taskBytes(r *registered, t *task.Task) int64 {
	n := int64(0)
	for i := 0; i < r.plan.NumInputs(); i++ {
		n += int64(len(t.In[i].Data))
	}
	return n
}

// measuredSelectivity estimates the fraction of tuples that pass a Map
// plan's predicate, with a floor for the always-evaluated guard.
func measuredSelectivity(r *registered, res *exec.TaskResult, tuples int) float64 {
	if r.plan.Kind != exec.Map || tuples == 0 {
		return 1
	}
	osz := r.plan.OutputSchema().TupleSize()
	sel := float64(len(res.Stream)/osz) / float64(tuples)
	if sel < 0.02 {
		sel = 0.02
	}
	return sel
}

// gpuInflightEntry is one task submitted to the device pipeline.
type gpuInflightEntry struct {
	t     *task.Task
	res   *exec.TaskResult
	done  <-chan error
	start time.Time
	probe bool // this submission is the breaker's half-open probe
}

// gpuWorker is the single worker thread that fronts the GPGPU. To keep
// the five-stage pipeline busy it keeps up to the device's pipeline depth
// of tasks in flight, completing them in submission order (paper §5.2).
//
// Fault handling: every submission first asks the circuit breaker for
// permission; device-side failures and timeouts feed back into it and
// into failTask (GPU→CPU failover). A task that exceeds GPUTaskTimeout is
// failed over immediately, and a detached collector waits for the
// device's eventual late completion and discards it (counted as a
// duplicate) — the CPU retry owns the task from the moment it is failed
// over.
//
// Idle, it parks like a CPU worker; an open breaker's cool-down elapsing
// is one of the wake events (Breaker.Notify).
func (e *Engine) gpuWorker() {
	defer e.workers.Done()
	var fly []gpuInflightEntry
	depth := e.cfg.GPU.PipelineDepth()
	idle := e.queue.Idle(int(sched.GPU))

	for {
		gen := idle.Gen()
		for len(fly) < depth {
			allow, probe := e.breaker.Acquire()
			if !allow {
				break
			}
			t := e.policy.Next(e.queue, sched.GPU)
			if t == nil {
				e.breaker.CancelProbe(probe)
				break
			}
			e.gpuInflight.Add(1)
			r := e.queryAt(t.Query)
			res := r.plan.NewResult()
			t.Trace.SetStage(obs.StageQueue, time.Duration(time.Now().UnixNano()-t.Created))
			fly = append(fly, gpuInflightEntry{
				t:     t,
				res:   res,
				done:  r.prog.Submit(t.In, res, t.Trace),
				start: time.Now(),
				probe: probe,
			})
			if probe {
				break // the single probe decides recovery; don't pile on
			}
		}
		if len(fly) == 0 {
			if e.stopped.Load() || e.queue.Closed() && e.queue.Len() == 0 {
				return
			}
			idle.Park(gen)
			continue
		}
		f := fly[0]
		fly = fly[1:]
		if e.completeGPU(f) {
			// Head-of-line hang: the entries queued behind the hung task
			// sat stalled in the pipeline through no fault of their own,
			// so their submit stamps overstate their elapsed time. Re-arm
			// their deadlines from now, or a single hang would cascade
			// into up to pipeline-depth spurious failovers (and the
			// duplicate-discard work their late results then cause).
			now := time.Now()
			for i := range fly {
				fly[i].start = now
			}
		}
	}
}

// completeGPU waits for one in-flight device task (bounded by the
// remaining share of GPUTaskTimeout) and resolves it: success, device
// failure, or hang-timeout with failover and late-result collection.
// It reports whether the task timed out, so the caller can re-arm the
// deadlines of the entries that were queued behind it.
func (e *Engine) completeGPU(f gpuInflightEntry) (hung bool) {
	var err error
	timedOut := false
	if remaining := e.cfg.GPUTaskTimeout - time.Since(f.start); remaining <= 0 {
		select {
		case err = <-f.done:
		default:
			timedOut = true
		}
	} else {
		timer := time.NewTimer(remaining)
		select {
		case err = <-f.done:
			timer.Stop()
		case <-timer.C:
			timedOut = true
		}
	}

	r := e.queryAt(f.t.Query)
	switch {
	case timedOut:
		e.breaker.RecordFailure(f.probe)
		r.stats.gpuTimeouts.Add(1)
		e.failTask(f.t, sched.GPU, fmt.Errorf("gpu: task %d timed out after %v", f.t.ID, e.cfg.GPUTaskTimeout))
		// The device owns staged copies of the inputs and will eventually
		// complete; collect that late completion off-thread and discard it.
		// It must NOT be delivered: the failed-over CPU retry is now the
		// sole owner of the task's ring region, and a late delivery winning
		// the slot would advance the drain frontier and release that region
		// while the retry is still reading it.
		e.lateWG.Add(1)
		go func() {
			defer e.lateWG.Done()
			lateErr := <-f.done
			if lateErr == nil {
				r.result.discardDup(f.res)
			} else {
				r.plan.ReleaseResult(f.res)
			}
		}()
	case err != nil:
		e.breaker.RecordFailure(f.probe)
		r.plan.ReleaseResult(f.res)
		e.failTask(f.t, sched.GPU, err)
	default:
		e.breaker.RecordSuccess(f.probe)
		f.t.Trace.SetProc(obs.ProcGPU)
		e.observe(f.t.Query, sched.GPU, taskBytes(r, f.t), time.Since(f.start))
		if r.result.deliver(f.t, f.res) {
			r.stats.tasksGPU.Add(1)
		}
	}
	if e.gpuInflight.Add(-1) == 0 {
		e.queue.Wake() // part of a CPU worker's exit condition
	}
	return timedOut
}
