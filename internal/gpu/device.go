// Package gpu implements SABER's GPGPU execution back end as a software
// device (DESIGN.md §2): streaming multiprocessors are a goroutine pool
// executing workgroups, global memory is arena-style byte buffers, DMA
// transfers really copy bytes through pinned staging buffers, and the
// five-stage pipeline of paper §5.2 (copyin → movein → execute → moveout →
// copyout) interleaves transfers with kernel execution across in-flight
// tasks. Wall-clock behaviour follows the calibrated cost model in
// internal/model, so the device exhibits the paper's performance surface
// (PCIe-bound for cheap kernels, compute-advantaged for expensive ones)
// while producing real, assembly-compatible results.
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
	// SMs is the number of streaming multiprocessors: the worker
	// goroutines executing workgroups. Defaults to 8.
	SMs int
	// WorkgroupTuples is the number of tuples per workgroup. Defaults
	// to 256.
	WorkgroupTuples int
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
	if c.SMs <= 0 {
		c.SMs = 8
	}
	if c.WorkgroupTuples <= 0 {
		c.WorkgroupTuples = 256
	}
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

	work   chan workgroup
	wgDone sync.WaitGroup // SM pool lifetime

	pipe *pipeline

	closed atomic.Bool

	// batchHint is the engine's current task size ϕ in bytes; the submit
	// path pre-sizes each slot's pinned staging buffers to it, so a grown
	// ϕ costs one reallocation per slot instead of append-doubling churn
	// in the middle of a burst. 0 means no hint (size to the data).
	batchHint atomic.Int64

	// Telemetry.
	tasksDone    atomic.Int64
	tasksFailed  atomic.Int64 // tasks that left the pipeline with an error
	hangs        atomic.Int64 // injected execute-stage stalls
	bytesMoved   atomic.Int64
	inflight     atomic.Int64 // tasks holding a pipeline slot right now
	stagingGrows atomic.Int64 // hint-driven staging buffer reallocations

	// chk holds the invariant checker's monotonicity watermark; the mutex
	// serialises CheckInvariants callers (see invariant.go).
	chk struct {
		mu   sync.Mutex
		done int64
	}
}

type workgroup struct {
	fn   func(lo, hi int)
	lo   int
	hi   int
	done *sync.WaitGroup
}

// Open starts the device: the SM pool and the pipeline stage threads.
func Open(cfg Config) *Device {
	cfg = cfg.withDefaults()
	d := &Device{
		cfg:  cfg,
		work: make(chan workgroup, cfg.SMs*4),
	}
	d.wgDone.Add(cfg.SMs)
	for i := 0; i < cfg.SMs; i++ {
		go d.sm()
	}
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
	close(d.work)
	d.wgDone.Wait()
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

// BytesMoved returns the number of bytes DMA-transferred in either
// direction.
func (d *Device) BytesMoved() int64 { return d.bytesMoved.Load() }

// SetBatchHint tells the device the task size ϕ the engine is currently
// cutting, so the pipeline can stage batches into right-sized pinned
// buffers. Safe to call concurrently with submissions; 0 clears the
// hint.
func (d *Device) SetBatchHint(bytes int) {
	if bytes < 0 {
		bytes = 0
	}
	d.batchHint.Store(int64(bytes))
}

// BatchHint returns the current staging size hint in bytes.
func (d *Device) BatchHint() int64 { return d.batchHint.Load() }

// StagingGrows returns how many hint-driven staging-buffer
// reallocations the pipeline has performed.
func (d *Device) StagingGrows() int64 { return d.stagingGrows.Load() }

// Injector returns the device's fault injector (nil when fault-free), so
// telemetry can mirror its per-site budgets.
func (d *Device) Injector() *fault.Injector { return d.cfg.Fault }

func (d *Device) sm() {
	defer d.wgDone.Done()
	for wg := range d.work {
		wg.fn(wg.lo, wg.hi)
		wg.done.Done()
	}
}

// launch runs a kernel over n work items, split into workgroups executed
// by the SM pool, and waits for completion.
func (d *Device) launch(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	gs := d.cfg.WorkgroupTuples
	var done sync.WaitGroup
	for lo := 0; lo < n; lo += gs {
		hi := lo + gs
		if hi > n {
			hi = n
		}
		done.Add(1)
		d.work <- workgroup{fn: fn, lo: lo, hi: hi, done: &done}
	}
	done.Wait()
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("gpu(SMs=%d, wg=%d, depth=%d)", d.cfg.SMs, d.cfg.WorkgroupTuples, d.cfg.PipelineDepth)
}
