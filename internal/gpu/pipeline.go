package gpu

import (
	"time"

	"saber/internal/exec"
	"saber/internal/fault"
	"saber/internal/model"
	"saber/internal/obs"
)

// job is one query task travelling through the five pipeline stages. The
// slot holding its input snapshot is owned by the job while in flight and
// recycled when copyout completes.
type job struct {
	prog *Program
	in   [2]exec.Batch
	res  *exec.TaskResult
	done chan error

	slot    *slot
	inBytes int
	tuples  int

	// err marks the job failed; later stages pass a failed job through,
	// and copyout reports the error on the completion channel instead of
	// a result.
	err error

	// outBytes is what the kernel appended to res: stream bytes plus the
	// estimated size of its partials. moveout and copyout charge for it.
	outBytes    int
	selectivity float64

	// tr receives per-stage duration stamps (nil disables stamping; all
	// TaskTrace methods are nil-safe). A failed-over task's trace may
	// concurrently receive CPU-retry stamps — TaskTrace fields are atomic,
	// last write wins.
	tr *obs.TaskTrace
}

// slot is one of the PipelineDepth in-flight buffers (the paper's
// "buffer 1..4" in Fig. 6): a snapshot of a task's two inputs.
type slot [2][]byte

type pipeline struct {
	d     *Device
	slots chan *slot

	cIn, cMove, cExec, cBack, cOut chan *job
	quit                           chan struct{}
}

func newPipeline(d *Device) *pipeline {
	// The stage channels are buffered to the pipeline depth: the slot pool
	// is the admission gate (at most PipelineDepth jobs hold buffers), so
	// buffering the handoffs costs nothing — but it decouples submit from
	// stage backpressure. With unbuffered handoffs a stalled execute stage
	// propagates backwards and blocks submit itself for the stall's
	// duration, which hides the hang from the submitter's timeout watch.
	depth := d.cfg.PipelineDepth
	p := &pipeline{
		d:     d,
		slots: make(chan *slot, depth),
		cIn:   make(chan *job, depth),
		cMove: make(chan *job, depth),
		cExec: make(chan *job, depth),
		cBack: make(chan *job, depth),
		cOut:  make(chan *job, depth),
		quit:  make(chan struct{}),
	}
	for i := 0; i < d.cfg.PipelineDepth; i++ {
		p.slots <- &slot{}
	}
	go p.copyin()
	go p.movein()
	go p.execute()
	go p.moveout()
	go p.copyout()
	return p
}

func (p *pipeline) close() {
	close(p.cIn) // cascades stage by stage
}

func (p *pipeline) submit(j *job) {
	j.slot = <-p.slots
	// Snapshot the task's input into the slot while the submitter still
	// owns the task's ring region, and drop the ring-backed views. After
	// submit returns the pipeline touches only slot-owned memory, so a task
	// that is failed over during a device hang — its ring region released
	// to the CPU retry and rewritten by the feeder — cannot race a stalled
	// stage.
	for i := range j.slot {
		j.slot[i] = append(j.slot[i][:0], j.in[i].Data...)
		j.in[i] = exec.Batch{Data: j.slot[i], Ctx: j.in[i].Ctx}
		j.inBytes += len(j.slot[i])
	}
	p.d.inflight.Add(1)
	p.cIn <- j
}

// copyin: managed heap → pinned host memory (the snapshot taken at
// submit; this stage models its cost and injects DMA faults).
func (p *pipeline) copyin() {
	defer close(p.cMove)
	for j := range p.cIn {
		if p.d.cfg.Fault.Decide(fault.GPUCopyIn) {
			j.err = fault.Errorf(fault.GPUCopyIn, "DMA copy-in error")
			p.cMove <- j
			continue
		}
		start := time.Now()
		j.tr.SetStage(obs.StageGPUCopyIn, model.Pad(start, p.d.cfg.Model.HostCopyTime(j.inBytes)))
		p.cMove <- j
	}
}

// movein: pinned host memory → device global memory over the simulated
// PCIe link, modelled as its cost; the kernel reads the snapshot.
func (p *pipeline) movein() {
	defer close(p.cExec)
	for j := range p.cMove {
		if j.err != nil {
			p.cExec <- j
			continue
		}
		start := time.Now()
		p.d.bytesMoved.Add(int64(j.inBytes))
		j.tr.SetStage(obs.StageGPUMoveIn, model.Pad(start, p.d.cfg.Model.PCIeTime(j.inBytes)))
		p.cExec <- j
	}
}

// execute: run the plan's batch operator function over the snapshot,
// padded to the modelled kernel time (which charges the paper's
// non-incremental window reductions and the host-side join window
// computation behind Fig. 12c's GPGPU collapse).
func (p *pipeline) execute() {
	defer close(p.cBack)
	for j := range p.cExec {
		if j.err != nil {
			p.cBack <- j
			continue
		}
		// An injected hang stalls the whole pipeline behind this task —
		// exactly how a wedged kernel starves the real device. The job
		// still completes afterwards, typically long after the engine's
		// GPU timeout failed it over, exercising late-result dedup.
		if d := p.d.cfg.Fault.Stall(fault.GPUHang); d > 0 {
			p.d.hangs.Add(1)
			time.Sleep(d)
		}
		if p.d.cfg.Fault.Decide(fault.GPUKernel) {
			j.err = fault.Errorf(fault.GPUKernel, "kernel fault")
			p.cBack <- j
			continue
		}
		start := time.Now()
		j.prog.runKernels(j)
		cost := p.d.cfg.Model
		j.tr.SetStage(obs.StageGPUKernel, model.Pad(start, cost.GPUKernelTime(j.prog.cost, j.tuples, j.selectivity)))
		p.cBack <- j
	}
}

// moveout: device global memory → pinned host memory, modelled as its
// cost; the kernel already wrote the result in place.
func (p *pipeline) moveout() {
	defer close(p.cOut)
	for j := range p.cBack {
		if j.err != nil {
			p.cOut <- j
			continue
		}
		start := time.Now()
		p.d.bytesMoved.Add(int64(j.outBytes))
		j.tr.SetStage(obs.StageGPUMoveOut, model.Pad(start, p.d.cfg.Model.PCIeTime(j.outBytes)))
		p.cOut <- j
	}
}

// copyout: pinned host memory → managed heap (the TaskResult), modelled
// as its cost; it hands the slot back and completes the job.
func (p *pipeline) copyout() {
	for j := range p.cOut {
		if j.err != nil {
			p.d.inflight.Add(-1)
			p.slots <- j.slot
			p.d.tasksFailed.Add(1)
			j.done <- j.err
			continue
		}
		start := time.Now()
		j.tr.SetStage(obs.StageGPUCopyOut, model.Pad(start, p.d.cfg.Model.HostCopyTime(j.outBytes)))
		p.d.inflight.Add(-1)
		p.slots <- j.slot
		p.d.tasksDone.Add(1)
		j.done <- nil
	}
}
