// Package gpu implements SABER's GPGPU execution back end as a software
// device (DESIGN.md §2). Each of the device's PipelineDepth slots holds
// one snapshot of a task's inputs, taken at Submit while the submitter
// still owns the task's ring region; the five-stage pipeline of paper
// §5.2 (copyin → movein → execute → moveout → copyout) interleaves the
// tasks in flight. The execute stage runs the plan's batch operator
// function (exec.Plan.Process), the same code the CPU workers run, over
// the snapshot and writes the task's result in place. The transfer stages
// move no bytes: they appear only as their cost. Wall-clock behaviour
// follows the calibrated model in internal/model, which charges the
// device's host copies, its PCIe transfers and its lack of incremental
// computation across overlapping windows, so the device exhibits the
// paper's performance surface (PCIe-bound for cheap kernels,
// compute-advantaged for expensive ones).
package gpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"saber/internal/fault"
	"saber/internal/model"
)

// Config describes the simulated device.
type Config struct {
	// PipelineDepth is the number of in-flight tasks (the paper uses 4
	// device buffers). 1 disables pipelining (the ablation baseline).
	PipelineDepth int
	// Model supplies the timing behaviour.
	Model model.Params
	// Fault optionally injects device faults (DMA errors, kernel faults,
	// hangs) at the pipeline's stages; nil runs fault-free.
	Fault *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 4
	}
	if c.Model.TimeScale == 0 {
		c.Model = model.Default()
	}
	return c
}

// Device is one simulated GPGPU. Open it once and share it between
// queries; Close it to stop its goroutines.
type Device struct {
	cfg Config

	pipe *pipeline

	closed atomic.Bool

	// Telemetry.
	tasksDone   atomic.Int64
	tasksFailed atomic.Int64 // tasks that left the pipeline with an error
	hangs       atomic.Int64 // injected execute-stage stalls
	bytesMoved  atomic.Int64
	inflight    atomic.Int64 // tasks holding a pipeline slot right now

	// chk holds the invariant checker's monotonicity watermark; the mutex
	// serialises CheckInvariants callers (see invariant.go).
	chk struct {
		mu   sync.Mutex
		done int64
	}
}

// Open starts the device's pipeline stage threads.
func Open(cfg Config) *Device {
	d := &Device{cfg: cfg.withDefaults()}
	d.pipe = newPipeline(d)
	return d
}

// Close drains and stops the device. Outstanding Submit results complete
// first.
func (d *Device) Close() {
	if d.closed.Swap(true) {
		return
	}
	d.pipe.close()
}

// TasksCompleted returns the number of tasks the device has finished.
func (d *Device) TasksCompleted() int64 { return d.tasksDone.Load() }

// TasksFailed returns the number of tasks that left the pipeline with a
// (injected) device fault.
func (d *Device) TasksFailed() int64 { return d.tasksFailed.Load() }

// PipelineDepth is the number of tasks the device holds in flight:
// Submit blocks beyond it.
func (d *Device) PipelineDepth() int { return d.cfg.PipelineDepth }

// Hangs returns the number of injected execute-stage stalls.
func (d *Device) Hangs() int64 { return d.hangs.Load() }

// BytesMoved returns the number of bytes the modelled PCIe transfers
// (movein and moveout) have charged for.
func (d *Device) BytesMoved() int64 { return d.bytesMoved.Load() }

// Injector returns the device's fault injector (nil when fault-free), so
// telemetry can mirror its per-site budgets.
func (d *Device) Injector() *fault.Injector { return d.cfg.Fault }

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("gpu(depth=%d)", d.cfg.PipelineDepth)
}
