package engine

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saber/internal/fault"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/task"
)

// TestPlanErrorRetryProducesCorrectOutput: injected plan failures on the
// CPU path are retried and the retries produce byte-identical output —
// the structured failure path replaces the old panic without losing or
// reordering anything.
func TestPlanErrorRetryProducesCorrectOutput(t *testing.T) {
	inj := fault.New(11)
	inj.Arm(fault.PlanExec, fault.Spec{Rate: 1, Limit: 4})

	cfg := fastConfig(4)
	cfg.Fault = inj
	// A requeued task retries at the queue head, so with Rate 1 the same
	// task can absorb several of the four injections back to back; keep
	// the retry budget above the injection limit so it always recovers.
	cfg.MaxTaskRetries = 8
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(20000, 1)
	h.Insert(stream)
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output diverged after retries: got %d bytes, want %d", len(out.buf), len(want))
	}
	st := h.Stats()
	if st.TasksFailed != 4 || st.TasksRetried != 4 {
		t.Errorf("failure stats: %+v", st)
	}
	if st.TasksQuarantined != 0 || st.TuplesShed != 0 {
		t.Errorf("unexpected quarantine: %+v", st)
	}
	if errs := h.RecentFailures(); len(errs) != 4 || !fault.Injected(errs[0]) {
		t.Errorf("failure log: %v", errs)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestQuarantineRecordsGap: a task that fails every attempt is abandoned
// after MaxTaskRetries, its window range recorded as shed tuples, and —
// critically — Drain completes instead of wedging on the poisoned task.
func TestQuarantineRecordsGap(t *testing.T) {
	inj := fault.New(5)
	inj.Arm(fault.PlanExec, fault.Spec{Rate: 1})

	cfg := fastConfig(4)
	cfg.Fault = inj
	cfg.MaxTaskRetries = 2
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(5000, 2)

	h.Insert(stream)
	done := make(chan struct{})
	go func() { eng.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain wedged on quarantined tasks")
	}
	eng.Close()

	st := h.Stats()
	if len(out.buf) != 0 {
		t.Fatalf("%d output bytes from all-failing tasks", len(out.buf))
	}
	if st.TasksQuarantined != st.TasksCreated {
		t.Errorf("quarantined %d of %d tasks", st.TasksQuarantined, st.TasksCreated)
	}
	if st.TuplesShed != 5000 {
		t.Errorf("shed %d tuples, want 5000", st.TuplesShed)
	}
	if st.TasksFailed != 2*st.TasksCreated {
		t.Errorf("failed attempts %d, want %d", st.TasksFailed, 2*st.TasksCreated)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestExactlyOnceConcurrentDelivery hammers the result stage directly:
// several goroutines deliver the same task IDs concurrently (the shape a
// GPU late result racing its CPU retry produces). Exactly one delivery
// per ID may win; everything else must be discarded and counted.
func TestExactlyOnceConcurrentDelivery(t *testing.T) {
	eng := New(fastConfig(1))
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	r := h.r
	const ids = 64
	const dups = 3
	r.taskSeq.Store(ids) // pretend the dispatcher created them

	var wins atomic.Int64
	var wg sync.WaitGroup
	for id := int64(0); id < ids; id++ {
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				tk := &task.Task{Query: 0, ID: id, Created: time.Now().UnixNano()}
				if r.result.deliver(tk, r.plan.NewResult()) {
					wins.Add(1)
				}
			}(id)
		}
	}
	wg.Wait()

	if wins.Load() != ids {
		t.Fatalf("%d deliveries won for %d tasks", wins.Load(), ids)
	}
	if got := r.result.duplicates.Value(); got != ids*(dups-1) {
		t.Fatalf("duplicates discarded = %d, want %d", got, ids*(dups-1))
	}
	if got := r.result.drained.Load(); got != ids {
		t.Fatalf("drained = %d, want %d", got, ids)
	}
	if err := r.result.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// preferDevice seeds query 0's GPU matrix column at an infinite rate,
// which the EWMA never unlearns, so HLS keeps the device preferred and it
// carries work on purpose. Natively the emulated device is several times
// slower per task than the CPU workers, so HLS alone would only probe it
// now and then. Call it after Start and before the first Insert.
func preferDevice(e *Engine) { e.Matrix().SeedRates(0, 0, math.Inf(1)) }

// TestGPUFailoverExactlyOnce: injected GPU kernel faults fail tasks over
// to the CPU; the output must stay byte-identical to the fault-free
// reference and every failover must be visible in the stats.
func TestGPUFailoverExactlyOnce(t *testing.T) {
	inj := fault.New(99)
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 0.3, Limit: 100})

	dev := gpu.Open(gpu.Config{SMs: 2, Model: model.Default().Scaled(1e-6), Fault: inj})
	defer dev.Close()

	cfg := fastConfig(4)
	cfg.GPU = dev
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	preferDevice(eng)
	stream := genStream(60000, 7)
	h.Insert(stream)
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output diverged under GPU faults: got %d bytes, want %d", len(out.buf), len(want))
	}
	st := h.Stats()
	if inj.TotalInjections() == 0 {
		t.Fatal("no faults injected — test exercised nothing")
	}
	if st.GPUFailovers == 0 || st.GPUFailovers != st.TasksFailed {
		t.Errorf("failover stats: %+v", st)
	}
	if st.TasksQuarantined != 0 {
		t.Errorf("quarantine under single-shot faults: %+v", st)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestGPUHangTimeoutFailover: an injected device hang trips the engine's
// GPU task timeout; the task fails over to the CPU while the device's
// eventual late completion is collected and discarded by the
// exactly-once result stage — the output never duplicates a window. The
// depth-1 case holds the worker to one task in flight: a worker that
// submitted past the device's depth would block in Submit behind the hung
// task and never reach its timeout.
func TestGPUHangTimeoutFailover(t *testing.T) {
	for _, depth := range []int{4, 1} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			gpuHangTimeoutFailover(t, depth)
		})
	}
}

func gpuHangTimeoutFailover(t *testing.T, depth int) {
	inj := fault.New(21)
	inj.Arm(fault.GPUHang, fault.Spec{Rate: 0.1, Delay: 50 * time.Millisecond, Limit: 3})

	dev := gpu.Open(gpu.Config{SMs: 2, PipelineDepth: depth, Model: model.Default().Scaled(1e-6), Fault: inj})

	cfg := fastConfig(4)
	cfg.GPU = dev
	cfg.GPUTaskTimeout = 5 * time.Millisecond
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	preferDevice(eng)
	stream := genStream(40000, 9)
	h.Insert(stream)
	eng.Drain()
	eng.Close() // waits for late-result collectors
	dev.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output diverged under device hangs: got %d bytes, want %d", len(out.buf), len(want))
	}
	st := h.Stats()
	if dev.Hangs() == 0 {
		t.Fatal("no hangs injected — test exercised nothing")
	}
	if st.GPUTimeouts == 0 {
		t.Errorf("hangs injected but no timeouts detected: %+v", st)
	}
	if st.DuplicateResults == 0 {
		t.Errorf("late results never raced the CPU retry: %+v", st)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}
