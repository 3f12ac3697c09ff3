package gpu

import (
	"time"

	"saber/internal/exec"
	"saber/internal/fault"
	"saber/internal/model"
	"saber/internal/obs"
)

// job is one query task travelling through the five pipeline stages. The
// slot's buffers (pinned staging and device global memory) are owned by
// the job while in flight and recycled when copyout completes.
type job struct {
	prog *Program
	in   [2]exec.Batch
	res  *exec.TaskResult
	done chan error

	slot    *slotBuffers
	inBytes int
	tuples  int

	// err marks the job failed; later stages pass a failed job through
	// without touching its buffers, and copyout reports the error on the
	// completion channel instead of a result.
	err error

	// devOut holds the kernel's stream output in device memory; moveout
	// and copyout stage it back to the host. Structured partials are
	// produced by the kernel and accounted for in outBytes.
	outBytes    int
	selectivity float64

	// tr receives per-stage duration stamps (nil disables stamping; all
	// TaskTrace methods are nil-safe). A failed-over task's trace may
	// concurrently receive CPU-retry stamps — TaskTrace fields are atomic,
	// last write wins.
	tr *obs.TaskTrace
}

// slotBuffers is one of the PipelineDepth in-flight buffer sets (the
// paper's "buffer 1..4" in Fig. 6).
type slotBuffers struct {
	pinIn  [2][]byte
	devIn  [2][]byte
	devOut []byte
	pinOut []byte
}

type pipeline struct {
	d     *Device
	slots chan *slotBuffers

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
		slots: make(chan *slotBuffers, depth),
		cIn:   make(chan *job, depth),
		cMove: make(chan *job, depth),
		cExec: make(chan *job, depth),
		cBack: make(chan *job, depth),
		cOut:  make(chan *job, depth),
		quit:  make(chan struct{}),
	}
	for i := 0; i < d.cfg.PipelineDepth; i++ {
		p.slots <- &slotBuffers{}
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
	// Snapshot the task's input into the slot's pinned staging buffers
	// while the submitter still owns the task's ring region. After submit
	// returns the pipeline touches only slot-owned memory, so a task that
	// is failed over during a device hang — its ring region released and
	// rewritten by the feeder — cannot race a stalled copy stage.
	j.inBytes = 0
	hint := int(p.d.batchHint.Load())
	for i := 0; i < 2; i++ {
		if n := len(j.in[i].Data); n > 0 && hint > n && hint > cap(j.slot.pinIn[i]) {
			// The engine has grown ϕ past this slot's staging capacity:
			// reallocate once to the hinted size rather than letting the
			// next several batches append-double their way there.
			j.slot.pinIn[i] = make([]byte, 0, hint)
			p.d.stagingGrows.Add(1)
		}
		j.slot.pinIn[i] = append(j.slot.pinIn[i][:0], j.in[i].Data...)
		j.inBytes += len(j.in[i].Data)
		// Drop the ring-backed view: after submit the pipeline touches
		// only slot-owned memory.
		j.in[i].Data = nil
	}
	p.d.inflight.Add(1)
	p.cIn <- j
}

// copyin: managed heap → pinned host memory (the copy itself happened at
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
// PCIe link.
func (p *pipeline) movein() {
	defer close(p.cExec)
	for j := range p.cMove {
		if j.err != nil {
			p.cExec <- j
			continue
		}
		start := time.Now()
		for i := 0; i < 2; i++ {
			j.slot.devIn[i] = append(j.slot.devIn[i][:0], j.slot.pinIn[i]...)
		}
		p.d.bytesMoved.Add(int64(j.inBytes))
		j.tr.SetStage(obs.StageGPUMoveIn, model.Pad(start, p.d.cfg.Model.PCIeTime(j.inBytes)))
		p.cExec <- j
	}
}

// execute: run the plan's batch operator function over device memory,
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

// moveout: device global memory → pinned host memory.
func (p *pipeline) moveout() {
	defer close(p.cOut)
	for j := range p.cBack {
		if j.err != nil {
			p.cOut <- j
			continue
		}
		start := time.Now()
		j.slot.pinOut = append(j.slot.pinOut[:0], j.slot.devOut...)
		p.d.bytesMoved.Add(int64(j.outBytes))
		j.tr.SetStage(obs.StageGPUMoveOut, model.Pad(start, p.d.cfg.Model.PCIeTime(j.outBytes)))
		p.cOut <- j
	}
}

// copyout: pinned host memory → managed heap (the TaskResult).
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
		j.res.Stream = append(j.res.Stream, j.slot.pinOut...)
		j.tr.SetStage(obs.StageGPUCopyOut, model.Pad(start, p.d.cfg.Model.HostCopyTime(j.outBytes)))
		p.d.inflight.Add(-1)
		p.slots <- j.slot
		p.d.tasksDone.Add(1)
		j.done <- nil
	}
}
