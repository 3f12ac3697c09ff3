package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/sched"
	"saber/internal/task"
)

// countingPolicy counts a policy's Next calls: how often workers asked
// for work. declined counts nil answers given while tasks were queued.
type countingPolicy struct {
	sched.Policy
	calls    atomic.Int64
	declined atomic.Int64
}

func (c *countingPolicy) Next(q *task.Queue, p sched.Processor) *task.Task {
	c.calls.Add(1)
	t := c.Policy.Next(q, p)
	if t == nil && q.Len() > 0 {
		c.declined.Add(1)
	}
	return t
}

// startWith is Start with the scheduling policy chosen by the test:
// policy builds it over the engine's fresh matrix, and the engine's own
// worker loops run under it. Close runs at cleanup.
func startWith(t *testing.T, e *Engine, policy func(*sched.Matrix) sched.Policy) {
	t.Helper()
	gpuCap := 0.0
	if e.cfg.GPU != nil {
		gpuCap = float64(e.cfg.GPU.PipelineDepth())
	}
	e.matrix = sched.NewMatrix(len(e.queries()), 1000, e.cfg.MatrixAlpha, float64(e.cfg.CPUWorkers), gpuCap)
	e.matrix.Notify = e.queue.Wake
	e.policy = policy(e.matrix)
	e.started.Store(true)
	for i := 0; i < e.cfg.CPUWorkers; i++ {
		e.workers.Add(1)
		go e.cpuWorker()
	}
	if e.cfg.GPU != nil {
		e.workers.Add(1)
		go e.gpuWorker()
	}
	t.Cleanup(e.Close)
}

// TestIdleWorkersPark: an idle engine's workers ask the policy once and
// then park. A poll loop would call Next every few hundred microseconds.
func TestIdleWorkersPark(t *testing.T) {
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	t.Cleanup(dev.Close)
	cfg := fastConfig(2)
	cfg.GPU = dev
	eng := New(cfg)
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	var cp countingPolicy
	startWith(t, eng, func(m *sched.Matrix) sched.Policy {
		cp.Policy = sched.NewHLS(1, m, 10)
		return &cp
	})
	time.Sleep(50 * time.Millisecond)
	if n, workers := cp.calls.Load(), int64(cfg.CPUWorkers+1); n > workers {
		t.Fatalf("idle for 50ms: %d Next calls from %d workers, want at most one each", n, workers)
	}
}

// TestHLSDeclineWakesOnObservation: a CPU worker that HLS turned away
// from a GPU-preferred task parks, and the matrix observation that makes
// the CPU preferred wakes it to take the task. Nothing else can: no GPU
// worker runs, and no timer ends a park.
func TestHLSDeclineWakesOnObservation(t *testing.T) {
	eng := New(fastConfig(1))
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	var cp countingPolicy
	startWith(t, eng, func(m *sched.Matrix) sched.Policy {
		m.SeedRates(0, 100, 1000) // GPU preferred
		cp.Policy = sched.NewHLS(1, m, 10)
		return &cp
	})
	h.Insert(genStream(eng.TaskSize()/syn.TupleSize()+1, 5)) // cuts exactly one task
	waitFor(t, 10*time.Second, func() bool { return cp.declined.Load() > 0 }, "HLS to decline the task on the CPU")
	r := eng.queryAt(0)
	time.Sleep(20 * time.Millisecond)
	if r.result.drained.Load() != 0 || eng.QueueLen() != 1 {
		t.Fatalf("GPU-preferred task ran on the CPU before any observation (drained %d, queued %d)",
			r.result.drained.Load(), eng.QueueLen())
	}
	eng.matrix.ObserveSized(0, sched.CPU, 4096, 1e-6) // the CPU is now far faster
	waitFor(t, 10*time.Second, func() bool { return r.result.drained.Load() == 1 }, "the parked CPU worker to take the task")
}

// TestBlockedInsertResumesOnDrain: an Insert parked on a full ring
// resumes when the wedged worker lets a task drain, and loses nothing.
func TestBlockedInsertResumesOnDrain(t *testing.T) {
	gate := make(chan struct{})
	eng := New(Config{
		CPUWorkers:      1,
		TaskSize:        4096,
		InputBufferSize: 1 << 16,
		DisablePad:      true,
		Model:           model.Default(),
	})
	h, err := eng.Register(gateQuery(gate))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	big := genStream(4*(1<<16)/syn.TupleSize(), 17)
	inserted := make(chan struct{})
	go func() {
		h.Insert(big)
		close(inserted)
	}()
	waitFor(t, 10*time.Second, func() bool { return h.Stats().AdmitWaits > 0 }, "Insert to block")
	close(gate)
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert still parked after the worker resumed draining")
	}
	eng.Drain()
	st := h.Stats()
	if st.BytesIn != int64(len(big)) || st.TuplesShedAdmit != 0 {
		t.Fatalf("admitted %d of %d bytes, %d tuples admission-shed", st.BytesIn, len(big), st.TuplesShedAdmit)
	}
}
