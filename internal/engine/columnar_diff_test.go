package engine

import (
	"bytes"
	"math/rand"
	"slices"
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

// Columnar differential tests: the same stream through the engine, whose
// tasks carry column views of the columnar ring mirror, and through
// directRun (Plan.Process over row-only batches, no engine) must produce
// the same output. These tests are what lets the columnar path claim
// correctness rather than just speed (see DESIGN.md §11).

// runLayout feeds one query through a fresh engine and returns the
// collected output plus the handle (for telemetry assertions after
// Close).
func runLayout(t *testing.T, mk func() *query.Query, cfg Config, feed func(h *Handle, eng *Engine)) ([]byte, *Handle) {
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
	return out.buf, h
}

// chunkedFeed inserts stream into side 0 in uneven seeded chunks, so
// task cuts land at varied offsets relative to the columnar segments.
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

// colStats sums the gather telemetry across a handle's inputs.
func colStats(h *Handle) (views, copies int64) {
	for i := 0; i < h.r.plan.NumInputs(); i++ {
		views += h.r.ins[i].colViews.Load()
		copies += h.r.ins[i].colCopies.Load()
	}
	return
}

// projQuery is a filter + projection whose writers all read carried
// fields — the RowFreeMap shape that lets the GPU stage columns with no
// row gather at all.
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
// comparison (bytes.Equal, no sorting). An identity-projection selection
// streams whole rows for its output, so the plan reads no columns and
// projection pushdown skips the column store entirely: the differential
// check here is that pruning changes nothing about the bytes produced.
func TestColumnarDiffSelection(t *testing.T) {
	stream := genStream(40000, 101)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	colOut, colH := runLayout(t, func() *query.Query { return selQuery(t) }, fastConfig(4), chunkedFeed(stream, 102))

	if !bytes.Equal(colOut, want) {
		t.Fatalf("engine output diverged from direct run: got %d bytes, want %d", len(colOut), len(want))
	}
	if colH.r.ins[0].cols != nil {
		t.Error("identity-projection plan reads no columns, yet the engine built a column store")
	}
}

// TestColumnarDiffProjection: computed writers (NumProgram over a
// column) alongside forwarded fields, still byte-identical and ordered.
func TestColumnarDiffProjection(t *testing.T) {
	stream := genStream(30000, 103)
	want := directRun(t, projQuery(t), [2][]byte{stream, nil}, 128)
	colOut, colH := runLayout(t, func() *query.Query { return projQuery(t) }, fastConfig(4), chunkedFeed(stream, 104))

	if !bytes.Equal(colOut, want) {
		t.Fatalf("columnar output diverged from direct run: got %d bytes, want %d", len(colOut), len(want))
	}
	if v, _ := colStats(colH); v == 0 {
		t.Error("columnar run elided no gathers")
	}
}

// TestColumnarDiffAggregation: grouped sliding-window aggregation —
// window boundaries come from window.Context, so a columnar off-by-one
// in FirstIndex addressing shows up as shifted panes here.
func TestColumnarDiffAggregation(t *testing.T) {
	stream := genStream(30000, 105)
	want := directRun(t, aggQuery(t), [2][]byte{stream, nil}, 128)
	colOut, _ := runLayout(t, func() *query.Query { return aggQuery(t) }, fastConfig(8), chunkedFeed(stream, 106))

	sch := aggQuery(t).OutputSchema()
	ref, got := sortedRows(sch, want), sortedRows(sch, colOut)
	if len(got) != len(ref) {
		t.Fatalf("columnar rows: got %d want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("columnar row %d: got %s want %s", i, got[i], ref[i])
		}
	}
}

// TestColumnarDiffJoin: two inputs, each with its own column store and
// its own tuple geometry.
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

	colOut, colH := runLayout(t, mk, fastConfig(4), feed)

	want := directRun(t, mk(), [2][]byte{lb.Bytes(), rb.Bytes()}, 96)
	sch := mk().OutputSchema()
	if got, ref := sortedRows(sch, colOut), sortedRows(sch, want); !slices.Equal(got, ref) {
		t.Fatalf("columnar join diverged from direct run: %d vs %d rows", len(got), len(ref))
	}
	if v, c := colStats(colH); v+c == 0 {
		t.Error("join columnar run produced no column views")
	}
}

// TestColumnarDiffResize: mid-stream ϕ resizes move the task cuts; the
// column views must track the new extents exactly, including the wrap
// fallback once the absolute indices lap the segment capacity.
func TestColumnarDiffResize(t *testing.T) {
	stream := genStream(40000, 108)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)

	for _, seed := range []int64{1, 2, 3} {
		var colApplied []int
		colOut, _ := runLayout(t, func() *query.Query { return selQuery(t) }, fastConfig(4),
			func(h *Handle, eng *Engine) { colApplied = insertResizing(h, eng, stream, 12, seed) })

		if !bytes.Equal(colOut, want) {
			t.Fatalf("seed %d: columnar layout diverged under resizes %v: got %d bytes, want %d",
				seed, colApplied, len(colOut), len(want))
		}
	}
}

// TestColumnarDiffGPUFailover: injected kernel faults push tasks through
// GPU→CPU failover while the columnar path is live — retried tasks carry
// their column views with them, and the GPU stages RowFreeMap tasks as
// raw column segments (no gather). Output must stay byte-identical.
func TestColumnarDiffGPUFailover(t *testing.T) {
	stream := genStream(60000, 109)
	want := directRun(t, projQuery(t), [2][]byte{stream, nil}, 128)

	inj := fault.New(55)
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 0.3, Limit: 200})
	dev := gpu.Open(gpu.Config{SMs: 2, Model: model.Default().Scaled(1e-6), Fault: inj})
	cfg := fastConfig(4)
	cfg.GPU = dev
	colOut, _ := runLayout(t, func() *query.Query { return projQuery(t) }, cfg,
		func(h *Handle, eng *Engine) {
			preferDevice(eng)
			insertResizing(h, eng, stream, 15, 21)
		})
	dev.Close()

	if inj.TotalInjections() == 0 {
		t.Fatal("no faults injected — test exercised nothing")
	}
	if !bytes.Equal(colOut, want) {
		t.Fatalf("columnar layout diverged under failover: got %d bytes, want %d", len(colOut), len(want))
	}
	if dev.GathersElided() == 0 {
		t.Error("GPU staged no columnar tasks despite RowFreeMap plan")
	}
}

// TestColumnarProjectionPushdown: the engine shreds exactly the fields
// the compiled plan reads through columns — for the grouped aggregation
// (SUM(a) GROUP BY b) that is a and b, while timestamp and c stay
// row-only — and the results still match the row-only direct run.
func TestColumnarProjectionPushdown(t *testing.T) {
	stream := genStream(30000, 120)
	want := directRun(t, aggQuery(t), [2][]byte{stream, nil}, 128)
	colOut, colH := runLayout(t, func() *query.Query { return aggQuery(t) }, fastConfig(4), chunkedFeed(stream, 121))

	outS := colH.r.plan.OutputSchema()
	if rows, ref := sortedRows(outS, colOut), sortedRows(outS, want); !slices.Equal(rows, ref) {
		t.Fatalf("pushdown run diverged from direct run: %d vs %d rows", len(rows), len(ref))
	}
	cs := colH.r.ins[0].cols
	if cs == nil {
		t.Fatal("aggregation engine built no column store")
	}
	shredded := map[int]bool{1: true, 2: true} // a (arg), b (group key)
	for f := 0; f < syn.NumFields(); f++ {
		if cs.Shredded(f) != shredded[f] {
			t.Errorf("field %s shredded=%v, want %v", syn.Field(f).Name, cs.Shredded(f), shredded[f])
		}
	}
	if v, c := colStats(colH); v+c == 0 {
		t.Error("pushdown run handed no column views to tasks")
	}
}

// TestColumnarGauges: the saber.ring.* columnar gauges surface through
// the shared registry — occupancy, per-column bytes, and the gather
// counters — and read zero again once the stream is drained. The query
// is the RowFreeMap projection, which references every schema field, so
// all per-column gauges must exist.
func TestColumnarGauges(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig(4)
	cfg.Metrics = reg
	stream := genStream(20000, 110)
	_, _ = runLayout(t, func() *query.Query { return projQuery(t) }, cfg, chunkedFeed(stream, 111))

	snap := reg.Snapshot()
	if got := snap.Gauges["saber.ring.q0.in0.gather.elided"]; got <= 0 {
		t.Errorf("gather.elided gauge = %v, want > 0", got)
	}
	if got, ok := snap.Gauges["saber.ring.q0.in0.col.tuples"]; !ok {
		t.Error("col.tuples gauge missing")
	} else if got != 0 {
		t.Errorf("col.tuples = %v after drain, want 0 (all released)", got)
	}
	// One bytes gauge per schema field.
	for c := 0; c < syn.NumFields(); c++ {
		name := "saber.ring.q0.in0.col" + string(rune('0'+c)) + ".bytes"
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("%s gauge missing", name)
		}
	}
}
