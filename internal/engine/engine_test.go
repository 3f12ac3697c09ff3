package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"saber/internal/exec"
	"saber/internal/expr"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/query"
	"saber/internal/sched"
	"saber/internal/schema"
	"saber/internal/window"
)

var syn = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "a", Type: schema.Float32},
	schema.Field{Name: "b", Type: schema.Int32},
	schema.Field{Name: "c", Type: schema.Int32},
)

func genStream(n int, seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	b := schema.NewTupleBuilder(syn, n)
	for i := 0; i < n; i++ {
		b.Begin().
			Timestamp(int64(i)).
			Float32("a", float32(rnd.Intn(1000))/10).
			Int32("b", int32(rnd.Intn(8))).
			Int32("c", int32(rnd.Intn(50)))
	}
	return b.Bytes()
}

// fastConfig runs at native speed with small tasks so tests exercise many
// task boundaries quickly.
func fastConfig(workers int) Config {
	return Config{
		CPUWorkers: workers,
		TaskSize:   4096, // 204 tuples of 20 bytes per task
		DisablePad: true,
		Model:      model.Default(),
	}
}

// collectOutput registers an ordered collector sink.
func collectOutput(h *Handle) *struct {
	mu  sync.Mutex
	buf []byte
} {
	c := &struct {
		mu  sync.Mutex
		buf []byte
	}{}
	h.OnResult(func(rows []byte) {
		c.mu.Lock()
		c.buf = append(c.buf, rows...)
		c.mu.Unlock()
	})
	return c
}

// directRun computes the reference output with the exec layer directly
// (single-threaded, already verified against naive references in
// internal/exec tests).
func directRun(t *testing.T, q *query.Query, streams [2][]byte, batchTuples int) []byte {
	t.Helper()
	p, err := exec.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	asm := exec.NewAssembler(p)
	var out []byte
	var pos [2]int
	prevTS := [2]int64{window.NoPrev, window.NoPrev}
	more := func() bool {
		for i := 0; i < p.NumInputs(); i++ {
			if pos[i]*p.InputSchema(i).TupleSize() < len(streams[i]) {
				return true
			}
		}
		return false
	}
	for more() {
		var in [2]exec.Batch
		for i := 0; i < p.NumInputs(); i++ {
			s := p.InputSchema(i)
			tsz := s.TupleSize()
			total := len(streams[i]) / tsz
			n := batchTuples
			if pos[i]+n > total {
				n = total - pos[i]
			}
			data := streams[i][pos[i]*tsz : (pos[i]+n)*tsz]
			in[i] = exec.Batch{Data: data, Ctx: window.Context{
				FirstIndex:    int64(pos[i]),
				PrevTimestamp: prevTS[i],
			}}
			if n > 0 {
				prevTS[i] = s.Timestamp(data[(n-1)*tsz:])
			}
			pos[i] += n
		}
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			t.Fatal(err)
		}
		out = asm.Drain(res, out)
		p.ReleaseResult(res)
	}
	return asm.Flush(out)
}

func selQuery(t *testing.T) *query.Query {
	t.Helper()
	return query.NewBuilder("sel").
		From("S", syn, window.NewCount(64, 32)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(4)}).
		MustBuild()
}

func TestEndToEndSelection(t *testing.T) {
	eng := New(fastConfig(4))
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(20000, 1)
	// Insert in uneven chunks.
	rnd := rand.New(rand.NewSource(2))
	tsz := syn.TupleSize()
	for off := 0; off < len(stream); {
		n := (1 + rnd.Intn(300)) * tsz
		if off+n > len(stream) {
			n = len(stream) - off
		}
		h.Insert(stream[off : off+n])
		off += n
	}
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("selection output: got %d bytes, want %d", len(out.buf), len(want))
	}
	st := h.Stats()
	if st.BytesIn != int64(len(stream)) || st.BytesOut != int64(len(want)) {
		t.Errorf("stats: %+v", st)
	}
	if st.TasksCreated == 0 || st.TasksCPU != st.TasksCreated || st.TasksGPU != 0 {
		t.Errorf("task stats: %+v", st)
	}
	if st.AvgLatency <= 0 {
		t.Errorf("latency: %+v", st.AvgLatency)
	}
}

func aggQuery(t *testing.T) *query.Query {
	t.Helper()
	return query.NewBuilder("agg").
		From("S", syn, window.NewCount(200, 50)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild()
}

func sortedRows(s *schema.Schema, out []byte) []string {
	osz := s.TupleSize()
	var rows []string
	for i := 0; i+osz <= len(out); i += osz {
		var b []byte
		for f := 0; f < s.NumFields(); f++ {
			b = fmt.Appendf(b, "%.3f;", s.ReadFloat(out[i:i+osz], f))
		}
		rows = append(rows, string(b))
	}
	sort.Strings(rows)
	return rows
}

func TestEndToEndGroupedAggregation(t *testing.T) {
	eng := New(fastConfig(8))
	h, err := eng.Register(aggQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(30000, 3)
	h.Insert(stream)
	eng.Drain()
	eng.Close()

	want := directRun(t, aggQuery(t), [2][]byte{stream, nil}, 128)
	got := sortedRows(h.OutputSchema(), out.buf)
	ref := sortedRows(h.OutputSchema(), want)
	if len(got) != len(ref) {
		t.Fatalf("rows: got %d want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], ref[i])
		}
	}
}

// TestOutputOrdering: with many workers completing tasks out of order,
// the result stage must emit in task order — for an aggregation the
// emitted window timestamps are non-decreasing.
func TestOutputOrdering(t *testing.T) {
	q := query.NewBuilder("ord").
		From("S", syn, window.NewCount(100, 100)).
		Aggregate(query.Count, nil, "n").
		MustBuild()
	eng := New(fastConfig(12))
	h, _ := eng.Register(q)
	var mu sync.Mutex
	var timestamps []int64
	osz := q.OutputSchema().TupleSize()
	h.OnResult(func(rows []byte) {
		mu.Lock()
		for i := 0; i+osz <= len(rows); i += osz {
			timestamps = append(timestamps, q.OutputSchema().Timestamp(rows[i:]))
		}
		mu.Unlock()
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	h.Insert(genStream(50000, 4))
	eng.Drain()
	eng.Close()
	if len(timestamps) != 500 {
		t.Fatalf("windows = %d, want 500", len(timestamps))
	}
	for i := 1; i < len(timestamps); i++ {
		if timestamps[i] < timestamps[i-1] {
			t.Fatalf("out-of-order window results: %d after %d", timestamps[i], timestamps[i-1])
		}
	}
}

func TestEndToEndJoin(t *testing.T) {
	right := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "w", Type: schema.Int32},
	)
	mkQuery := func() *query.Query {
		return query.NewBuilder("join").
			FromAs("L", "L", syn, window.NewCount(32, 32)).
			FromAs("R", "R", right, window.NewCount(32, 32)).
			Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("b"), Right: expr.Col("w")}).
			MustBuild()
	}
	n := 4096
	lb := schema.NewTupleBuilder(syn, n)
	rb := schema.NewTupleBuilder(right, n)
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		lb.Begin().Timestamp(int64(i)).Int32("b", int32(rnd.Intn(4)))
		rb.Begin().Timestamp(int64(i)).Int32("w", int32(rnd.Intn(4)))
	}
	eng := New(fastConfig(4))
	h, err := eng.Register(mkQuery())
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Interleave the two inputs in modest chunks.
	ltz, rtz := syn.TupleSize(), right.TupleSize()
	for off := 0; off < n; off += 100 {
		end := off + 100
		if end > n {
			end = n
		}
		h.InsertInto(0, lb.Bytes()[off*ltz:end*ltz])
		h.InsertInto(1, rb.Bytes()[off*rtz:end*rtz])
	}
	eng.Drain()
	eng.Close()

	want := directRun(t, mkQuery(), [2][]byte{lb.Bytes(), rb.Bytes()}, 96)
	got := sortedRows(h.OutputSchema(), out.buf)
	ref := sortedRows(h.OutputSchema(), want)
	if len(got) != len(ref) {
		t.Fatalf("rows: got %d want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestHybridUsesBothProcessors(t *testing.T) {
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cfg := fastConfig(4)
	cfg.GPU = dev
	cfg.SwitchThreshold = 3
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(60000, 6)
	h.Insert(stream)
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("hybrid output differs: %d vs %d bytes", len(out.buf), len(want))
	}
	st := h.Stats()
	if st.TasksCPU == 0 || st.TasksGPU == 0 {
		t.Fatalf("both processors should contribute: %+v", st)
	}
	if st.GPUShare() <= 0 || st.GPUShare() >= 1 {
		t.Fatalf("GPUShare = %g", st.GPUShare())
	}
}

// TestHybridGroupedSlidingMatchesCPU: a grouped sliding aggregate with
// windows much shorter than a task, run under HLS with a switch threshold
// of one probe-length (so both processors run tasks), must emit per window
// the same rows as the CPU-only run.
// CPU workers render windows complete in their task into rows, the GPU
// emits them as partials, and windows spanning tasks merge fragments
// from both processors.
func TestHybridGroupedSlidingMatchesCPU(t *testing.T) {
	w := window.NewCount(48, 16)
	q := func() *query.Query {
		return query.NewBuilder("hyb").
			From("S", syn, w).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b").
			MustBuild()
	}
	stream := genStream(20000, 10)
	run := func(dev *gpu.Device) ([]byte, Stats) {
		cfg := fastConfig(2)
		if dev != nil {
			cfg.GPU = dev
			cfg.SwitchThreshold = 1
		}
		eng := New(cfg)
		h, err := eng.Register(q())
		if err != nil {
			t.Fatal(err)
		}
		out := collectOutput(h)
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		h.Insert(stream)
		eng.Drain()
		eng.Close()
		return out.buf, h.Stats()
	}
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cpu, _ := run(nil)
	hybrid, st := run(dev)
	if st.TasksCPU == 0 || st.TasksGPU == 0 {
		t.Fatalf("both processors should contribute: %+v", st)
	}

	// Every window of 48 consecutive tuples holds one row per distinct b.
	out := q().OutputSchema()
	tsz, osz := syn.TupleSize(), out.TupleSize()
	n := len(stream) / tsz
	if len(cpu) != len(hybrid) {
		t.Fatalf("rows: hybrid %d, CPU-only %d", len(hybrid)/osz, len(cpu)/osz)
	}
	off := 0
	for k := int64(0); w.Start(k) < int64(n); k++ {
		groups := map[int32]bool{}
		for i := w.Start(k); i < w.End(k) && i < int64(n); i++ {
			groups[syn.ReadInt32(stream[i*int64(tsz):], 2)] = true
		}
		end := off + len(groups)*osz
		if end > len(cpu) {
			t.Fatalf("window %d: output ends after %d rows", k, off/osz)
		}
		got, want := sortedRows(out, hybrid[off:end]), sortedRows(out, cpu[off:end])
		if !slices.Equal(got, want) {
			t.Fatalf("window %d:\n hybrid %v\n cpu    %v", k, got, want)
		}
		off = end
	}
	if off != len(cpu) {
		t.Fatalf("%d rows beyond the last window", (len(cpu)-off)/osz)
	}
}

func TestTailFlushEmitsOpenWindows(t *testing.T) {
	q := query.NewBuilder("tail").
		From("S", syn, window.NewCount(1000000, 1000000)). // never closes
		Aggregate(query.Count, nil, "n").
		MustBuild()
	eng := New(fastConfig(2))
	h, _ := eng.Register(q)
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	h.Insert(genStream(5000, 7))
	eng.Drain()
	eng.Close()
	osz := q.OutputSchema().TupleSize()
	if len(out.buf) != osz {
		t.Fatalf("flush emitted %d bytes, want one row", len(out.buf))
	}
	if got := q.OutputSchema().ReadInt(out.buf, 1); got != 5000 {
		t.Fatalf("count = %d", got)
	}
}

func TestBackpressureSmallBuffer(t *testing.T) {
	cfg := fastConfig(2)
	cfg.InputBufferSize = 1 << 16 // 64 KiB: forces ring reuse + wrap
	cfg.TaskSize = 1 << 12
	eng := New(cfg)
	h, _ := eng.Register(selQuery(t))
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(100000, 8)
	h.Insert(stream)
	eng.Drain()
	eng.Close()
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output under backpressure differs: %d vs %d", len(out.buf), len(want))
	}
}

func TestConfigValidationAndPolicies(t *testing.T) {
	if err := New(fastConfig(1)).Start(); err == nil {
		t.Error("Start with no queries succeeded")
	}

	eng := New(fastConfig(1))
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register(selQuery(t)); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Error("double Start succeeded")
	}
	// Live registration: a query registered after Start joins the
	// running engine.
	if _, err := eng.Register(aggQuery(t)); err != nil {
		t.Errorf("Register after Start failed: %v", err)
	}
	eng.Drain()
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Register(selQuery(t)); err == nil {
		t.Error("Register after Close succeeded")
	}

	bad := fastConfig(1)
	bad.Policy = "banana"
	e2 := New(bad)
	if _, err := e2.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err == nil {
		t.Error("unknown policy accepted")
	}

	st := fastConfig(1)
	st.Policy = "static"
	e3 := New(st)
	if _, err := e3.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := e3.Start(); err == nil {
		t.Error("static policy without assignments accepted")
	}
	st.StaticAssign = []sched.Processor{sched.CPU}
	e4 := New(st)
	h, _ := e4.Register(selQuery(t))
	if err := e4.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e4.Register(aggQuery(t)); err == nil {
		t.Error("live registration under the static policy succeeded")
	}
	h.Insert(genStream(1000, 9))
	e4.Drain()
	e4.Close()
	if h.Stats().TasksCPU == 0 {
		t.Error("static CPU assignment executed nothing")
	}
}

func TestInsertValidation(t *testing.T) {
	eng := New(fastConfig(1))
	h, _ := eng.Register(selQuery(t))
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		eng.Drain()
		eng.Close()
	}()
	h.Insert(nil) // no-op
	defer func() {
		if recover() == nil {
			t.Error("partial tuple insert did not panic")
		}
	}()
	h.Insert(make([]byte, 7))
}
