package exec

import (
	"fmt"
	"strings"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// kernelOf names the CPU kernel a compiled plan runs.
func kernelOf(p *Plan) string {
	switch {
	case p.Kind == Map:
		return "map"
	case p.Kind == Join && p.keyRange.ok:
		return "key-range-join"
	case p.Kind == Join:
		return "theta-join"
	case p.grouped && p.invertApl:
		return "grouped-rolling"
	case p.grouped:
		return "grouped-direct"
	case p.invertApl:
		return "scalar-prefix"
	}
	return "scalar-direct"
}

// TestKernelsAgainstOracle runs one query per kernel shape through the
// batch operator functions and the assembler at batch sizes 1, w-1, w,
// w+1 and 3w (w the window size), over row-only batches and batches
// carrying stale column segments, and requires the output to equal the
// naive window oracle's exactly — join rows in nested-loop order wherever whole
// windows fit in a batch (oracleResult.check).
func TestKernelsAgainstOracle(t *testing.T) {
	syn := [2][]byte{genStream(600, 11), nil}
	gaps := [2][]byte{gapStream(600, 12), nil}
	wide := [2][]byte{genStream(600, 13), nil}
	for i, c := 0, synSchema.IndexOf("c"); i < 600; i++ {
		tu := wide[0][i*synSchema.TupleSize():]
		synSchema.WriteInt32(tu, c, synSchema.ReadInt32(tu, c)%3)
	}
	l, r := genPair(160, 5)
	pair := [2][]byte{l, r}
	joinQ := func(name string, w window.Def, pred expr.Pred) *query.Query {
		return query.NewBuilder(name).
			FromAs("L", "L", leftSchema, w).
			FromAs("R", "R", rightSchema, w).
			Join(pred).
			MustBuild()
	}
	v, w := expr.Col("v"), expr.Col("w")
	plus := func(e expr.Expr, c int64) expr.Expr {
		return expr.Arith{Op: expr.Add, Left: e, Right: expr.IntConst(c)}
	}
	vEqW := expr.Cmp{Op: expr.Eq, Left: v, Right: w}
	wl, wr := wrapPair(160)
	wrap := [2][]byte{wl, wr}

	cases := []struct {
		name    string
		kernel  string
		q       *query.Query
		streams [2][]byte
	}{
		// AND-of-compares filter (fused leaves) plus computed and forwarded
		// output columns.
		{"map-select-project", "map", query.NewBuilder("dmap").
			From("S", synSchema, window.NewCount(8, 8)).
			Where(expr.And{Preds: []expr.Pred{
				expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(6)},
				expr.Cmp{Op: expr.Ge, Left: expr.Col("a"), Right: expr.FloatConst(10)},
			}}).
			Select("timestamp", "b").
			SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(3)}, "a3").
			SelectAs(expr.Arith{Op: expr.Mod, Left: expr.Col("e"), Right: expr.IntConst(7)}, "e7").
			MustBuild(), syn},
		// Column-vs-column and OR predicates don't flatten to fused leaves;
		// they exercise the lowered batch program.
		{"map-general-predicate", "map", query.NewBuilder("dmap2").
			From("S", synSchema, window.NewCount(8, 8)).
			Where(expr.Or{Preds: []expr.Pred{
				expr.Cmp{Op: expr.Gt, Left: expr.Col("b"), Right: expr.Col("d")},
				expr.Not{P: expr.Cmp{Op: expr.Le, Left: expr.Col("c"), Right: expr.IntConst(50)}},
			}}).
			MustBuild(), syn},
		{"agg-scalar-prefix", "scalar-prefix", query.NewBuilder("dpre").
			From("S", synSchema, window.NewCount(32, 5)).
			Where(expr.Cmp{Op: expr.Ne, Left: expr.Col("d"), Right: expr.IntConst(0)}).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			Aggregate(query.Avg, expr.Col("c"), "m").
			MustBuild(), syn},
		{"agg-scalar-direct", "scalar-direct", query.NewBuilder("ddir").
			From("S", synSchema, window.NewTime(20, 7)).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(5)}).
			Aggregate(query.Min, expr.Col("a"), "lo").
			Aggregate(query.Max, expr.Arith{Op: expr.Add, Left: expr.Col("a"), Right: expr.Col("c")}, "hi").
			Aggregate(query.Sum, expr.Col("c"), "s").
			MustBuild(), gaps},
		{"agg-grouped-rolling", "grouped-rolling", query.NewBuilder("droll").
			From("S", synSchema, window.NewCount(24, 3)).
			Where(expr.Cmp{Op: expr.Gt, Left: expr.Col("c"), Right: expr.IntConst(20)}).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b", "d").
			MustBuild(), syn},
		// A 12-byte key (b, c, d) takes the generic byte-wise probe; c is
		// folded to three values so groups repeat within a window.
		{"agg-grouped-wide-key", "grouped-rolling", query.NewBuilder("dwide").
			From("S", synSchema, window.NewCount(48, 6)).
			Where(expr.Cmp{Op: expr.Ne, Left: expr.Col("b"), Right: expr.IntConst(3)}).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b", "c", "d").
			MustBuild(), wide},
		// One group per row (f is the row index): a 3w batch holds more
		// groups than the rolling table starts with room for (256), so the
		// table grows while rows are resolved to slots.
		{"agg-grouped-grow", "grouped-rolling", query.NewBuilder("dgrow").
			From("S", synSchema, window.NewCount(100, 20)).
			Aggregate(query.Avg, expr.Col("a"), "m").
			Aggregate(query.Count, nil, "n").
			GroupBy("f").
			MustBuild(), syn},
		{"agg-grouped-direct", "grouped-direct", query.NewBuilder("dgdir").
			From("S", synSchema, window.NewCount(16, 4)).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(80)}).
			Aggregate(query.Max, expr.Col("a"), "hi").
			Aggregate(query.Sum, expr.Col("c"), "s").
			GroupBy("b").
			MustBuild(), syn},
		{"agg-grouped-time", "grouped-rolling", query.NewBuilder("dgtime").
			From("S", synSchema, window.NewTime(25, 5)).
			Where(expr.Cmp{Op: expr.Ge, Left: expr.Col("c"), Right: expr.IntConst(10)}).
			Aggregate(query.Avg, expr.Col("a"), "m").
			Aggregate(query.Count, nil, "n").
			GroupBy("d").
			MustBuild(), gaps},
		{"agg-grouped-having", "grouped-rolling", query.NewBuilder("dhav").
			From("S", synSchema, window.NewCount(20, 5)).
			Aggregate(query.Sum, expr.Col("c"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b").
			Having(expr.Cmp{Op: expr.Gt, Left: expr.Col("n"), Right: expr.IntConst(2)}).
			MustBuild(), syn},
		{"distinct", "grouped-rolling", query.NewBuilder("ddist").
			From("S", synSchema, window.NewCount(12, 4)).
			Select("timestamp", "b", "d").
			Distinct().
			MustBuild(), syn},
		{"join-equi", "key-range-join", joinQ("deq", window.NewCount(16, 16), vEqW), pair},
		// Equality conjunct plus a residual θ-conjunct: the key-range path
		// must still apply the full predicate.
		{"join-equi-residual", "key-range-join", joinQ("deqr", window.NewCount(16, 8), expr.And{Preds: []expr.Pred{
			vEqW,
			expr.Cmp{Op: expr.Lt, Left: expr.QCol("L", "timestamp"), Right: expr.QCol("R", "timestamp")},
		}}), pair},
		// v < w < v+3, one bound in each operand order: w ∈ [v+1, v+2].
		{"join-band", "key-range-join", joinQ("dband", window.NewCount(16, 16), expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: v, Right: w},
			expr.Cmp{Op: expr.Lt, Left: w, Right: plus(v, 3)},
		}}), pair},
		// 2+v ≥ w ≥ v−1: w ∈ [v−1, v+2] over sliding windows.
		{"join-band-inclusive", "key-range-join", joinQ("dbandi", window.NewCount(16, 8), expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Ge, Left: expr.Arith{Op: expr.Add, Left: expr.IntConst(2), Right: v}, Right: w},
			expr.Cmp{Op: expr.Ge, Left: w, Right: expr.Arith{Op: expr.Sub, Left: v, Right: expr.IntConst(1)}},
		}}), pair},
		// w > v+2 and w < v+1: lo 3 > hi 0.
		{"join-band-empty", "key-range-join", joinQ("dbande", window.NewCount(16, 16), expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Gt, Left: w, Right: plus(v, 2)},
			expr.Cmp{Op: expr.Lt, Left: w, Right: plus(v, 1)},
		}}), pair},
		// Equality with an offset inside a band on the same pair: w = v+1.
		{"join-equi-band", "key-range-join", joinQ("deqb", window.NewCount(16, 16), expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Le, Left: v, Right: w},
			expr.Cmp{Op: expr.Eq, Left: plus(v, 1), Right: w},
			expr.Cmp{Op: expr.Le, Left: w, Right: plus(v, 3)},
		}}), pair},
		// Int64 keys within 8 of the int64 limits: for v near MaxInt64 both
		// v+3 and v+6 wrap, and the wrapped predicate matches w near
		// MinInt64.
		{"join-band-wrap", "key-range-join", query.NewBuilder("dwrap").
			FromAs("L", "L", left64, window.NewCount(16, 16)).
			FromAs("R", "R", right64, window.NewCount(16, 16)).
			Join(expr.And{Preds: []expr.Pred{
				expr.Cmp{Op: expr.Gt, Left: w, Right: plus(v, 2)},
				expr.Cmp{Op: expr.Le, Left: w, Right: plus(v, 6)},
			}}).
			MustBuild(), wrap},
		// The same below: for v near MinInt64, v−3 and v−6 wrap.
		{"join-band-wrap-low", "key-range-join", query.NewBuilder("dwrapl").
			FromAs("L", "L", left64, window.NewCount(16, 16)).
			FromAs("R", "R", right64, window.NewCount(16, 16)).
			Join(expr.And{Preds: []expr.Pred{
				expr.Cmp{Op: expr.Lt, Left: w, Right: plus(v, -2)},
				expr.Cmp{Op: expr.Ge, Left: w, Right: plus(v, -6)},
			}}).
			MustBuild(), wrap},
		{"join-theta", "theta-join", joinQ("dth", window.NewCount(8, 8),
			expr.Cmp{Op: expr.Lt, Left: v, Right: w}), pair},
		// Two lower bounds and no upper one: still the nested loop.
		{"join-one-sided", "theta-join", joinQ("dos", window.NewCount(8, 8), expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: v, Right: w},
			expr.Cmp{Op: expr.Ge, Left: w, Right: expr.Arith{Op: expr.Sub, Left: v, Right: expr.IntConst(2)}},
		}}), pair},
	}
	for _, c := range cases {
		want := runOracle(t, c.q, c.streams)
		// Only the cases named *-empty are meant to produce no rows.
		if empty := strings.HasSuffix(c.name, "-empty"); (len(want.out) == 0) != empty {
			t.Fatalf("%s: oracle produced %d bytes", c.name, len(want.out))
		}
		size := int(c.q.Inputs[0].Window.Size)
		for _, cols := range []bool{false, true} {
			for _, batch := range []int{1, size - 1, size, size + 1, 3 * size} {
				t.Run(fmt.Sprintf("%s/cols=%v/batch=%d", c.name, cols, batch), func(t *testing.T) {
					p := mustCompile(t, c.q)
					if k := kernelOf(p); k != c.kernel {
						t.Fatalf("plan runs the %s kernel, want %s", k, c.kernel)
					}
					want.check(t, p, runPlanLayout(t, p, c.streams, batch, cols), batch)
				})
			}
		}
	}
}
