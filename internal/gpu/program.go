package gpu

import (
	"saber/internal/exec"
	"saber/internal/model"
	"saber/internal/obs"
)

// Program is a query plan bound to a device: the OpenCL analogue of the
// paper's populated kernel templates (§5.4).
type Program struct {
	d    *Device
	plan *exec.Plan
	cost model.QueryCost
}

// Compile binds a plan to the device.
func (d *Device) Compile(plan *exec.Plan) *Program {
	return &Program{d: d, plan: plan, cost: model.Analyze(plan.Q)}
}

// Submit enqueues a task into the five-stage pipeline and returns a
// completion channel. Up to the device's PipelineDepth tasks are in
// flight; beyond that Submit blocks, which is the backpressure the GPGPU
// worker thread relies on.
func (p *Program) Submit(in [2]exec.Batch, res *exec.TaskResult) <-chan error {
	return p.SubmitTraced(in, res, nil)
}

// SubmitTraced is Submit with a task trace: each pipeline stage stamps
// its duration (copyin/movein/kernel/moveout/copyout) into tr. A nil tr
// disables stamping.
func (p *Program) SubmitTraced(in [2]exec.Batch, res *exec.TaskResult, tr *obs.TaskTrace) <-chan error {
	done := make(chan error, 1)
	p.d.pipe.submit(&job{prog: p, in: in, res: res, done: done, selectivity: 1, tr: tr})
	return done
}

// Run executes a task synchronously.
func (p *Program) Run(in [2]exec.Batch, res *exec.TaskResult) error {
	return <-p.Submit(in, res)
}

// runKernels runs the plan's batch operator function over the job's
// device buffers. Called from the pipeline's execute stage. Stream output
// is written into the slot's device output buffer, which moveout and
// copyout carry back to res.Stream; the slot pool is shared by every
// query on the device, so the buffer is truncated first and the previous
// job's output never leaks into this one. Partials are host structures,
// accounted for in outBytes.
func (p *Program) runKernels(j *job) {
	plan := p.plan
	in := [2]exec.Batch{
		{Data: j.slot.devIn[0], Ctx: j.in[0].Ctx},
		{Data: j.slot.devIn[1], Ctx: j.in[1].Ctx},
	}
	for i := 0; i < plan.NumInputs(); i++ {
		j.tuples += len(in[i].Data) / plan.InputSchema(i).TupleSize()
	}
	res := j.res
	host, parts := res.Stream, len(res.Partials)
	res.Stream = j.slot.devOut[:0]
	j.err = plan.Process(in, res)
	j.slot.devOut, res.Stream = res.Stream, host
	j.outBytes = len(j.slot.devOut) + partialBytes(res.Partials[parts:])
	if plan.Kind == exec.Map && j.tuples > 0 {
		out := len(j.slot.devOut) / plan.OutputSchema().TupleSize()
		j.selectivity = max(float64(out)/float64(j.tuples), 0.02) // the guard predicate still runs
	}
}

// partialBytes estimates the byte volume of structured fragment results
// for transfer-time accounting.
func partialBytes(parts []exec.WindowPartial) int {
	total := 0
	for i := range parts {
		pt := &parts[i]
		total += 24 // window id + flags + count
		total += 8 * len(pt.Vals)
		if pt.Table != nil {
			total += pt.Table.Len() * (pt.Table.KeyLen() + 8*pt.Table.NumAggs() + 16)
		}
		total += len(pt.Data) + len(pt.AData) + len(pt.BData)
	}
	return total
}
