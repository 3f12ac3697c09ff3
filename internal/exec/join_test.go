package exec

import (
	"math"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

var leftSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "v", Type: schema.Int32},
)

var rightSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "w", Type: schema.Int32},
)

func genPair(n int, mod int32) (l, r []byte) {
	lb := schema.NewTupleBuilder(leftSchema, n)
	rb := schema.NewTupleBuilder(rightSchema, n)
	for i := 0; i < n; i++ {
		lb.Begin().Timestamp(int64(i)).Int32("v", int32(i)%mod)
		rb.Begin().Timestamp(int64(i)).Int32("w", int32(i)%mod)
	}
	return lb.Bytes(), rb.Bytes()
}

// left64 and right64 carry Int64 join keys for the wrap-around cases.
var left64 = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "v", Type: schema.Int64},
)

var right64 = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "w", Type: schema.Int64},
)

// wrapPair builds n-tuple streams whose keys lie within 8 of
// math.MaxInt64 or math.MinInt64, with both extremes in every 16 tuples.
func wrapPair(n int) (l, r []byte) {
	lb := schema.NewTupleBuilder(left64, n)
	rb := schema.NewTupleBuilder(right64, n)
	near := func(high bool, j int) int64 {
		if high {
			return math.MaxInt64 - int64(j)
		}
		return math.MinInt64 + int64(j)
	}
	for i := 0; i < n; i++ {
		lb.Begin().Timestamp(int64(i)).Int64("v", near(i/8%2 == 0, i%8))
		rb.Begin().Timestamp(int64(i)).Int64("w", near(i/4%2 == 1, 3*i%8))
	}
	return lb.Bytes(), rb.Bytes()
}

func joinPlan(t *testing.T, w window.Def, pred expr.Pred) *Plan {
	t.Helper()
	q := query.NewBuilder("join").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(pred).
		MustBuild()
	return mustCompile(t, q)
}

func TestJoinTumblingWithinBatch(t *testing.T) {
	p := joinPlan(t, window.NewCount(8, 8), expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(64, 4)
	streams := [2][]byte{l, r}
	runOracle(t, p.Q, streams).check(t, p, runPlanStreams(t, p, streams, 16), 16) // batches hold whole windows
}

// TestJoinWindowSpansBatches: windows larger than the batch require the
// assembly stage to join cross-task pairs.
func TestJoinWindowSpansBatches(t *testing.T) {
	p := joinPlan(t, window.NewCount(16, 16), expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(64, 4)
	streams := [2][]byte{l, r}
	want := runOracle(t, p.Q, streams)
	for _, batch := range []int{3, 5, 7} {
		want.check(t, p, runPlanStreams(t, p, streams, batch), batch)
	}
}

func TestJoinThetaPredicate(t *testing.T) {
	w := window.NewCount(4, 4)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(16, 100)
	out := runPlanStreams(t, p, [2][]byte{l, r}, 4)
	s := p.OutputSchema()
	osz := s.TupleSize()
	vIdx, wIdx := s.IndexOf("v"), s.IndexOf("w")
	count := 0
	for o := 0; o+osz <= len(out); o += osz {
		if s.ReadInt32(out[o:], vIdx) >= s.ReadInt32(out[o:], wIdx) {
			t.Fatal("θ predicate violated in output")
		}
		count++
	}
	// Per tumbling window of 4 with distinct values 4k..4k+3: pairs with
	// v<w: C(4,2)=6 per window, 4 windows.
	if count != 24 {
		t.Fatalf("rows = %d, want 24", count)
	}
}

func TestJoinProjectionOutput(t *testing.T) {
	w := window.NewCount(4, 4)
	q := query.NewBuilder("pj").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		Select("v").
		SelectAs(expr.QCol("R", "timestamp"), "rts").
		MustBuild()
	p := mustCompile(t, q)
	if p.OutputSchema().NumFields() != 2 {
		t.Fatalf("out = %s", p.OutputSchema())
	}
	l, r := genPair(8, 2)
	out := runPlanStreams(t, p, [2][]byte{l, r}, 8)
	if len(out) == 0 || len(out)%p.OutputSchema().TupleSize() != 0 {
		t.Fatalf("output size %d", len(out))
	}
}

func TestJoinTimeWindows(t *testing.T) {
	p := joinPlan(t, window.NewTime(4, 4), expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(32, 4)
	streams := [2][]byte{l, r}
	runOracle(t, p.Q, streams).check(t, p, runPlanStreams(t, p, streams, 5), 5)
}

func TestJoinMismatchedWindowKindsRejected(t *testing.T) {
	q := query.NewBuilder("bad").
		FromAs("L", "L", leftSchema, window.NewCount(4, 4)).
		FromAs("R", "R", rightSchema, window.NewTime(4, 4)).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	if _, err := Compile(q); err == nil {
		t.Fatal("mixed window kinds compiled")
	}
}

// TestJoinLaggingInput: one input runs far ahead of the other across
// batches. A window must not close until BOTH inputs have passed it, even
// though the closes happen in different tasks.
func TestJoinLaggingInput(t *testing.T) {
	w := window.NewTime(4, 4)
	p := joinPlan(t, w, expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")})
	l, r := genPair(32, 4)

	asm := NewAssembler(p)
	var out []byte

	// Task 1: all of L, none of R. Task 2: none of L, all of R.
	tasks := [][2]Batch{
		{{Data: l, Ctx: window.Context{FirstIndex: 0, PrevTimestamp: window.NoPrev}}, {Ctx: window.Context{PrevTimestamp: window.NoPrev}}},
		{{Data: nil, Ctx: window.Context{FirstIndex: 32, PrevTimestamp: 31}}, {Data: r, Ctx: window.Context{FirstIndex: 0, PrevTimestamp: window.NoPrev}}},
	}
	for _, in := range tasks {
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			t.Fatal(err)
		}
		out = asm.Drain(res, out)
		p.ReleaseResult(res)
	}
	runOracle(t, p.Q, [2][]byte{l, r}).check(t, p, asm.Flush(out), 0)
}
