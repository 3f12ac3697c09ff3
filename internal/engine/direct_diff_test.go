package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"saber/internal/expr"
	"saber/internal/fault"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// Engine-level differential tests: the same stream through the engine —
// ring, task cuts, workers, result reordering — and through directRun
// (Plan.Process over the whole stream, no engine) must produce the same
// output. The tests keep the TestColumnar names they had while the
// engine also mirrored each input into a column store; every input is
// now one row ring, and the same cases check the row path.

// runEngine feeds one query through a fresh engine and returns the
// collected output.
func runEngine(t *testing.T, mk func() *query.Query, cfg Config, feed func(h *Handle, eng *Engine)) []byte {
	t.Helper()
	eng := New(cfg)
	h, err := eng.Register(mk())
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	feed(h, eng)
	eng.Drain()
	eng.Close()
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
	return out.buf
}

// chunkedFeed inserts stream into side 0 in uneven seeded chunks, so
// task cuts land at varied offsets relative to the inserts.
func chunkedFeed(stream []byte, seed int64) func(h *Handle, eng *Engine) {
	return func(h *Handle, eng *Engine) {
		rnd := rand.New(rand.NewSource(seed))
		tsz := syn.TupleSize()
		for off := 0; off < len(stream); {
			n := (1 + rnd.Intn(300)) * tsz
			if off+n > len(stream) {
				n = len(stream) - off
			}
			h.Insert(stream[off : off+n])
			off += n
		}
	}
}

// projQuery is a filter + projection with forwarded and computed output
// fields.
func projQuery(t *testing.T) *query.Query {
	t.Helper()
	return query.NewBuilder("proj").
		From("S", syn, window.NewCount(64, 32)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(30)}).
		Select("timestamp", "a", "b").
		SelectAs(expr.Arith{Op: expr.Add, Left: expr.Col("c"), Right: expr.IntConst(1)}, "c1").
		MustBuild()
}

// TestColumnarDiffSelection: ordered selection output — the strictest
// comparison (bytes.Equal, no sorting).
func TestColumnarDiffSelection(t *testing.T) {
	stream := genStream(40000, 101)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	got := runEngine(t, func() *query.Query { return selQuery(t) }, fastConfig(4), chunkedFeed(stream, 102))

	if !bytes.Equal(got, want) {
		t.Fatalf("engine output diverged from direct run: got %d bytes, want %d", len(got), len(want))
	}
}

// TestColumnarDiffProjection: computed writers (NumProgram over a field)
// alongside forwarded fields, still byte-identical and ordered.
func TestColumnarDiffProjection(t *testing.T) {
	stream := genStream(30000, 103)
	want := directRun(t, projQuery(t), [2][]byte{stream, nil}, 128)
	got := runEngine(t, func() *query.Query { return projQuery(t) }, fastConfig(4), chunkedFeed(stream, 104))

	if !bytes.Equal(got, want) {
		t.Fatalf("engine output diverged from direct run: got %d bytes, want %d", len(got), len(want))
	}
}

// TestColumnarDiffAggregation: grouped sliding-window aggregation (SUM(a)
// GROUP BY b) — window boundaries come from window.Context, so an
// off-by-one in FirstIndex addressing shows up as shifted panes here.
func TestColumnarDiffAggregation(t *testing.T) {
	for _, c := range []struct {
		workers              int
		streamSeed, feedSeed int64
	}{{8, 105, 106}, {4, 120, 121}} {
		stream := genStream(30000, c.streamSeed)
		want := directRun(t, aggQuery(t), [2][]byte{stream, nil}, 128)
		got := runEngine(t, func() *query.Query { return aggQuery(t) }, fastConfig(c.workers), chunkedFeed(stream, c.feedSeed))

		sch := aggQuery(t).OutputSchema()
		if rows, ref := sortedRows(sch, got), sortedRows(sch, want); !slices.Equal(rows, ref) {
			t.Fatalf("%d workers: engine diverged from direct run: %d vs %d rows", c.workers, len(rows), len(ref))
		}
	}
}

// TestColumnarDiffJoin: two inputs, each with its own ring and its own
// tuple geometry.
func TestColumnarDiffJoin(t *testing.T) {
	right := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "w", Type: schema.Int32},
	)
	mk := func() *query.Query {
		return query.NewBuilder("join").
			FromAs("L", "L", syn, window.NewCount(32, 32)).
			FromAs("R", "R", right, window.NewCount(32, 32)).
			Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("b"), Right: expr.Col("w")}).
			MustBuild()
	}
	n := 4096
	lb := schema.NewTupleBuilder(syn, n)
	rb := schema.NewTupleBuilder(right, n)
	rnd := rand.New(rand.NewSource(107))
	for i := 0; i < n; i++ {
		lb.Begin().Timestamp(int64(i)).Int32("b", int32(rnd.Intn(4)))
		rb.Begin().Timestamp(int64(i)).Int32("w", int32(rnd.Intn(4)))
	}
	ltz, rtz := syn.TupleSize(), right.TupleSize()
	feed := func(h *Handle, eng *Engine) {
		for off := 0; off < n; off += 100 {
			end := off + 100
			if end > n {
				end = n
			}
			h.InsertInto(0, lb.Bytes()[off*ltz:end*ltz])
			h.InsertInto(1, rb.Bytes()[off*rtz:end*rtz])
		}
	}

	got := runEngine(t, mk, fastConfig(4), feed)

	want := directRun(t, mk(), [2][]byte{lb.Bytes(), rb.Bytes()}, 96)
	sch := mk().OutputSchema()
	if rows, ref := sortedRows(sch, got), sortedRows(sch, want); !slices.Equal(rows, ref) {
		t.Fatalf("join diverged from direct run: %d vs %d rows", len(rows), len(ref))
	}
}

// TestColumnarDiffResize: mid-stream ϕ resizes move the task cuts; the
// ring views must track the new extents exactly.
func TestColumnarDiffResize(t *testing.T) {
	stream := genStream(40000, 108)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)

	for _, seed := range []int64{1, 2, 3} {
		var applied []int
		got := runEngine(t, func() *query.Query { return selQuery(t) }, fastConfig(4),
			func(h *Handle, eng *Engine) { applied = insertResizing(h, eng, stream, 12, seed) })

		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: output diverged under resizes %v: got %d bytes, want %d",
				seed, applied, len(got), len(want))
		}
	}
}

// TestColumnarDiffGPUFailover: injected kernel faults push tasks through
// GPU→CPU failover while the device runs the projection; retried tasks
// carry their ring views with them. Output must stay byte-identical.
func TestColumnarDiffGPUFailover(t *testing.T) {
	stream := genStream(60000, 109)
	want := directRun(t, projQuery(t), [2][]byte{stream, nil}, 128)

	inj := fault.New(55)
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 0.3, Limit: 200})
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6), Fault: inj})
	cfg := fastConfig(4)
	cfg.GPU = dev
	got := runEngine(t, func() *query.Query { return projQuery(t) }, cfg,
		func(h *Handle, eng *Engine) {
			preferDevice(eng)
			insertResizing(h, eng, stream, 15, 21)
		})
	dev.Close()

	if inj.TotalInjections() == 0 {
		t.Fatal("no faults injected — test exercised nothing")
	}
	if dev.TasksCompleted() == 0 {
		t.Error("the device completed no task — the GPU path never ran")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged under failover: got %d bytes, want %d", len(got), len(want))
	}
}

// TestColumnarGauges: the column mirror's telemetry went with it. After a
// projection run on a device, the registry exports no saber.ring.*
// column gauge and no saber.gpu.gathers.elided (a dashboard must find
// them gone, not reading a stale zero), while the row ring's gauges are
// there.
func TestColumnarGauges(t *testing.T) {
	reg := obs.NewRegistry()
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	cfg := fastConfig(4)
	cfg.GPU = dev
	cfg.Metrics = reg
	stream := genStream(20000, 110)
	want := directRun(t, projQuery(t), [2][]byte{stream, nil}, 128)
	got := runEngine(t, func() *query.Query { return projQuery(t) }, cfg,
		func(h *Handle, eng *Engine) {
			preferDevice(eng)
			chunkedFeed(stream, 111)(h, eng)
		})
	dev.Close()

	if !bytes.Equal(got, want) {
		t.Fatalf("engine output diverged from direct run: got %d bytes, want %d", len(got), len(want))
	}
	names := reg.Names()
	for _, name := range names {
		if strings.HasPrefix(name, "saber.ring.") || name == "saber.gpu.gathers.elided" {
			t.Errorf("retired column metric %s is still exported", name)
		}
	}
	for _, name := range []string{"saber.engine.q0.in0.ring.bytes", "saber.engine.q0.in0.ring.wraps", "saber.gpu.tasks.done"} {
		if !slices.Contains(names, name) {
			t.Errorf("%s missing from the registry", name)
		}
	}
}
