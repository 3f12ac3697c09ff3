package engine

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"saber/internal/expr"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/query"
	"saber/internal/sched"
	"saber/internal/window"
)

// TestGPUOnlyMode: CPUWorkers < 0 with a device runs everything on the
// GPGPU and still produces the correct, ordered output.
func TestGPUOnlyMode(t *testing.T) {
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cfg := fastConfig(1)
	cfg.CPUWorkers = -1
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
	stream := genStream(20000, 21)
	h.Insert(stream)
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("gpu-only output differs: %d vs %d bytes", len(out.buf), len(want))
	}
	st := h.Stats()
	if st.TasksCPU != 0 || st.TasksGPU == 0 {
		t.Fatalf("gpu-only split wrong: %+v", st)
	}
}

// TestGPUCapacityIsPipelineDepth: the throughput matrix turns a GPGPU
// task's service time into a rate with the device's pipeline depth, the
// number of tasks it overlaps. A depth-1 device that took 1 ms per task
// runs 1000 tasks/s, not the 4000 of a hard-coded depth-4 capacity.
func TestGPUCapacityIsPipelineDepth(t *testing.T) {
	dev := gpu.Open(gpu.Config{PipelineDepth: 1, Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cfg := fastConfig(1)
	cfg.GPU = dev
	eng := New(cfg)
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.matrix.Observe(0, sched.GPU, 0.001)
	if got := eng.matrix.Rate(0, sched.GPU); got != 1000 {
		t.Fatalf("depth-1 GPGPU rate after one 1 ms task = %g/s, want 1000/s", got)
	}
}

func TestNoProcessorsRejected(t *testing.T) {
	cfg := fastConfig(1)
	cfg.CPUWorkers = -1
	eng := New(cfg)
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Fatal("engine started with no processors")
	}
}

func TestGreedyPolicy(t *testing.T) {
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cfg := fastConfig(2)
	cfg.GPU = dev
	cfg.Policy = "greedy"
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(20000, 22)
	h.Insert(stream)
	eng.Drain()
	eng.Close()
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatal("greedy output differs")
	}
	// Greedy without a GPU is rejected.
	cfg2 := fastConfig(1)
	cfg2.Policy = "greedy"
	e2 := New(cfg2)
	if _, err := e2.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err == nil {
		t.Fatal("greedy without GPU accepted")
	}
}

// TestModelPaddingSlowsTasks: with the model enabled, task latency must
// reflect the modelled duration rather than raw Go speed.
func TestModelPaddingSlowsTasks(t *testing.T) {
	cfg := Config{
		CPUWorkers: 2,
		TaskSize:   1 << 16, // 2048 tuples of 32 B
		Model:      model.Default().Scaled(100),
	}
	eng := New(cfg)
	q := query.NewBuilder("pad").
		From("S", syn, window.NewCount(64, 64)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(100)}).
		MustBuild()
	h, _ := eng.Register(q)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// 2048 tuples × (55+14·2) ns × 100 ≈ 17 ms per task minimum.
	h.Insert(genStream(8192, 23))
	eng.Drain()
	eng.Close()
	st := h.Stats()
	if st.AvgLatency < 10*time.Millisecond {
		t.Fatalf("padding ineffective: latency %v", st.AvgLatency)
	}
}

// TestTimeWindowAggregationEngine exercises time-based windows through
// the whole engine (dispatch context propagation across tasks).
func TestTimeWindowAggregationEngine(t *testing.T) {
	q := query.NewBuilder("tw").
		From("S", syn, window.NewTime(500, 100)).
		Aggregate(query.Count, nil, "n").
		MustBuild()
	eng := New(fastConfig(4))
	h, _ := eng.Register(q)
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(40000, 24) // timestamps 0..39999
	h.Insert(stream)
	eng.Drain()
	eng.Close()
	want := directRun(t, q, [2][]byte{stream, nil}, 100)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("time-window output differs: %d vs %d bytes", len(out.buf), len(want))
	}
}

// TestManyQueriesShareEngine runs four queries concurrently and checks
// each produces its isolated, correct output.
func TestManyQueriesShareEngine(t *testing.T) {
	eng := New(fastConfig(6))
	mk := func(name string, limit int64) *query.Query {
		return query.NewBuilder(name).
			From("S", syn, window.NewCount(64, 64)).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(limit)}).
			MustBuild()
	}
	qs := []*query.Query{mk("q1", 2), mk("q2", 4), mk("q3", 6), mk("q4", 8)}
	var handles []*Handle
	var outs []*struct {
		mu  sync.Mutex
		buf []byte
	}
	for _, q := range qs {
		h, err := eng.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		outs = append(outs, collectOutput(h))
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(30000, 25)
	for _, h := range handles {
		h.Insert(stream)
	}
	eng.Drain()
	eng.Close()
	for i, q := range qs {
		want := directRun(t, q, [2][]byte{stream, nil}, 128)
		if !bytes.Equal(outs[i].buf, want) {
			t.Fatalf("query %s output differs", q.Name)
		}
	}
}
