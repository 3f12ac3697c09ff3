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
// worker thread relies on. Submit snapshots the inputs before it returns,
// so the caller may reuse their memory at once; res belongs to the
// pipeline until the channel yields. Each stage stamps its duration
// (copyin/movein/kernel/moveout/copyout) into tr; a nil tr disables
// stamping.
func (p *Program) Submit(in [2]exec.Batch, res *exec.TaskResult, tr *obs.TaskTrace) <-chan error {
	done := make(chan error, 1)
	p.d.pipe.submit(&job{prog: p, in: in, res: res, done: done, selectivity: 1, tr: tr})
	return done
}

// Run executes a task synchronously.
func (p *Program) Run(in [2]exec.Batch, res *exec.TaskResult) error {
	return <-p.Submit(in, res, nil)
}

// runKernels runs the plan's batch operator function over the job's
// input snapshot, appending straight to its TaskResult. Called from the
// pipeline's execute stage. Partials are host structures, accounted for
// in outBytes by their estimated size.
func (p *Program) runKernels(j *job) {
	plan := p.plan
	for i := 0; i < plan.NumInputs(); i++ {
		j.tuples += len(j.in[i].Data) / plan.InputSchema(i).TupleSize()
	}
	res := j.res
	stream, parts := len(res.Stream), len(res.Partials)
	j.err = plan.Process(j.in, res)
	out := len(res.Stream) - stream
	j.outBytes = out + partialBytes(res.Partials[parts:])
	if plan.Kind == exec.Map && j.tuples > 0 {
		rows := out / plan.OutputSchema().TupleSize()
		j.selectivity = max(float64(rows)/float64(j.tuples), 0.02) // the guard predicate still runs
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
