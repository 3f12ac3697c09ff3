package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// These tests pin the vectorized CPU path to the per-tuple scalar path:
// both plans process the same batch sequence and every TaskResult must be
// byte-identical — Stream bytes (map output, and the rows of aggregate
// windows complete in the task, whose group order both paths fix by
// inserting groups in tuple order), partial flags, counts, accumulator
// bits, join payloads, and group-table contents.

// tableSnapshot renders a group table as sorted "key→count/vals/ts" lines
// so two tables compare as sets of groups (iteration order is layout-
// dependent and not part of the contract).
func tableSnapshot(h *HashTable, nAggs int) []string {
	if h == nil {
		return nil
	}
	var rows []string
	h.Range(func(sl Slot) {
		row := fmt.Sprintf("%x c=%d ts=%d", sl.Key(), sl.Count(), sl.MaxTS())
		for a := 0; a < nAggs; a++ {
			row += fmt.Sprintf(" v%d=%016x", a, math.Float64bits(sl.Val(a)))
		}
		rows = append(rows, row)
	})
	sort.Strings(rows)
	return rows
}

func comparePartial(t *testing.T, task int, k int, got, want *WindowPartial, nAggs int) {
	t.Helper()
	fail := func(field string, g, w interface{}) {
		t.Fatalf("task %d partial %d: %s = %v, scalar has %v", task, k, field, g, w)
	}
	if got.Window != want.Window {
		fail("Window", got.Window, want.Window)
	}
	if got.OpenedHere != want.OpenedHere || got.ClosedHere != want.ClosedHere {
		fail("Opened/ClosedHere",
			[2]bool{got.OpenedHere, got.ClosedHere}, [2]bool{want.OpenedHere, want.ClosedHere})
	}
	if got.ClosedSides != want.ClosedSides {
		fail("ClosedSides", got.ClosedSides, want.ClosedSides)
	}
	if got.Count != want.Count {
		fail("Count", got.Count, want.Count)
	}
	if got.MaxTS != want.MaxTS {
		fail("MaxTS", got.MaxTS, want.MaxTS)
	}
	if len(got.Vals) != len(want.Vals) {
		fail("len(Vals)", len(got.Vals), len(want.Vals))
	}
	for a := range got.Vals {
		if math.Float64bits(got.Vals[a]) != math.Float64bits(want.Vals[a]) {
			fail(fmt.Sprintf("Vals[%d] bits", a),
				math.Float64bits(got.Vals[a]), math.Float64bits(want.Vals[a]))
		}
	}
	if string(got.Data) != string(want.Data) {
		fail("Data", len(got.Data), len(want.Data))
	}
	if string(got.AData) != string(want.AData) {
		fail("AData", len(got.AData), len(want.AData))
	}
	if string(got.BData) != string(want.BData) {
		fail("BData", len(got.BData), len(want.BData))
	}
	gt, wt := tableSnapshot(got.Table, nAggs), tableSnapshot(want.Table, nAggs)
	if len(gt) != len(wt) {
		fail("table groups", len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] != wt[i] {
			fail("table group", gt[i], wt[i])
		}
	}
}

// runDifferential processes streams through a vectorized and a scalar
// compilation of the same query, comparing every TaskResult and the final
// assembled output.
func runDifferential(t *testing.T, q *query.Query, streams [2][]byte, batchTuples int) {
	t.Helper()
	pv := mustCompile(t, q)
	ps := mustCompile(t, q)
	pv.SetVectorized(true)
	ps.SetVectorized(false)

	asmV, asmS := NewAssembler(pv), NewAssembler(ps)
	var outV, outS []byte
	var pos [2]int
	var prevTS [2]int64
	prevTS[0], prevTS[1] = window.NoPrev, window.NoPrev

	more := func() bool {
		for i := 0; i < pv.NumInputs(); i++ {
			if pos[i]*pv.InputSchema(i).TupleSize() < len(streams[i]) {
				return true
			}
		}
		return false
	}
	task := 0
	for more() {
		var in [2]Batch
		for i := 0; i < pv.NumInputs(); i++ {
			s := pv.InputSchema(i)
			tsz := s.TupleSize()
			total := len(streams[i]) / tsz
			n := batchTuples
			if pos[i]+n > total {
				n = total - pos[i]
			}
			if n < 0 {
				n = 0
			}
			data := streams[i][pos[i]*tsz : (pos[i]+n)*tsz]
			in[i] = Batch{Data: data, Ctx: window.Context{
				FirstIndex:    int64(pos[i]),
				PrevTimestamp: prevTS[i],
			}}
			if n > 0 {
				prevTS[i] = s.Timestamp(data[(n-1)*tsz:])
			}
			pos[i] += n
		}
		resV, resS := pv.NewResult(), ps.NewResult()
		if err := pv.Process(in, resV); err != nil {
			t.Fatalf("vec Process: %v", err)
		}
		if err := ps.Process(in, resS); err != nil {
			t.Fatalf("scalar Process: %v", err)
		}
		if string(resV.Stream) != string(resS.Stream) {
			t.Fatalf("task %d: Stream differs (%d vs %d bytes)", task, len(resV.Stream), len(resS.Stream))
		}
		if len(resV.Partials) != len(resS.Partials) {
			t.Fatalf("task %d: %d partials, scalar has %d", task, len(resV.Partials), len(resS.Partials))
		}
		for k := range resV.Partials {
			comparePartial(t, task, k, &resV.Partials[k], &resS.Partials[k], pv.NumAggs())
		}
		outV = asmV.Drain(resV, outV)
		outS = asmS.Drain(resS, outS)
		pv.ReleaseResult(resV)
		ps.ReleaseResult(resS)
		task++
	}
	outV, outS = asmV.Flush(outV), asmS.Flush(outS)
	if string(outV) != string(outS) {
		t.Fatalf("assembled output differs (%d vs %d bytes)", len(outV), len(outS))
	}
	if len(outV) == 0 {
		t.Fatal("differential test degenerate: no output produced")
	}
}

func TestDiffMapSelectProject(t *testing.T) {
	// AND-of-compares filter (fused leaves) plus computed and forwarded
	// output columns.
	q := query.NewBuilder("dmap").
		From("S", synSchema, window.NewCount(8, 8)).
		Where(expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(6)},
			expr.Cmp{Op: expr.Ge, Left: expr.Col("a"), Right: expr.FloatConst(10)},
		}}).
		Select("timestamp", "b").
		SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(3)}, "a3").
		SelectAs(expr.Arith{Op: expr.Mod, Left: expr.Col("e"), Right: expr.IntConst(7)}, "e7").
		MustBuild()
	stream := genStream(500, 11)
	for _, bt := range []int{3, 64, 500} {
		runDifferential(t, q, [2][]byte{stream, nil}, bt)
	}
}

func TestDiffMapGeneralPredicate(t *testing.T) {
	// Column-vs-column and OR predicates don't flatten to fused leaves;
	// they exercise the lowered batch program.
	q := query.NewBuilder("dmap2").
		From("S", synSchema, window.NewCount(8, 8)).
		Where(expr.Or{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Gt, Left: expr.Col("b"), Right: expr.Col("d")},
			expr.Not{P: expr.Cmp{Op: expr.Le, Left: expr.Col("c"), Right: expr.IntConst(50)}},
		}}).
		MustBuild()
	stream := genStream(400, 12)
	runDifferential(t, q, [2][]byte{stream, nil}, 37)
}

func TestDiffAggScalarPrefix(t *testing.T) {
	q := query.NewBuilder("dpre").
		From("S", synSchema, window.NewCount(32, 5)).
		Where(expr.Cmp{Op: expr.Ne, Left: expr.Col("d"), Right: expr.IntConst(0)}).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		Aggregate(query.Avg, expr.Col("c"), "m").
		MustBuild()
	stream := genStream(600, 13)
	for _, bt := range []int{9, 100} {
		runDifferential(t, q, [2][]byte{stream, nil}, bt)
	}
}

func TestDiffAggScalarDirect(t *testing.T) {
	q := query.NewBuilder("ddir").
		From("S", synSchema, window.NewTime(20, 7)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(5)}).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Arith{Op: expr.Add, Left: expr.Col("a"), Right: expr.Col("c")}, "hi").
		Aggregate(query.Sum, expr.Col("c"), "s").
		MustBuild()
	stream := genStream(600, 14)
	runDifferential(t, q, [2][]byte{stream, nil}, 53)
}

func TestDiffAggGroupedRolling(t *testing.T) {
	q := query.NewBuilder("droll").
		From("S", synSchema, window.NewCount(24, 3)).
		Where(expr.Cmp{Op: expr.Gt, Left: expr.Col("c"), Right: expr.IntConst(20)}).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		GroupBy("b", "d").
		MustBuild()
	stream := genStream(600, 15)
	for _, bt := range []int{8, 71} {
		runDifferential(t, q, [2][]byte{stream, nil}, bt)
	}
}

func TestDiffAggGroupedDirect(t *testing.T) {
	q := query.NewBuilder("dgdir").
		From("S", synSchema, window.NewCount(16, 4)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(80)}).
		Aggregate(query.Max, expr.Col("a"), "hi").
		Aggregate(query.Sum, expr.Col("c"), "s").
		GroupBy("b").
		MustBuild()
	stream := genStream(500, 16)
	runDifferential(t, q, [2][]byte{stream, nil}, 45)
}

func TestDiffJoinEqui(t *testing.T) {
	w := window.NewCount(16, 16)
	q := query.NewBuilder("deq").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	p := mustCompile(t, q)
	if !p.eqJoin.ok {
		t.Fatal("equality join not detected")
	}
	l, r := genPair(128, 5)
	for _, bt := range []int{8, 32} { // windows spanning batches and not
		runDifferential(t, q, [2][]byte{l, r}, bt)
	}
}

func TestDiffJoinEquiWithResidual(t *testing.T) {
	// Equality conjunct plus a residual θ-conjunct: the bucketed path must
	// still apply the full predicate.
	w := window.NewCount(16, 8)
	q := query.NewBuilder("deqr").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")},
			expr.Cmp{Op: expr.Lt, Left: expr.QCol("L", "timestamp"), Right: expr.QCol("R", "timestamp")},
		}}).
		MustBuild()
	p := mustCompile(t, q)
	if !p.eqJoin.ok {
		t.Fatal("equality conjunct not detected")
	}
	l, r := genPair(96, 4)
	runDifferential(t, q, [2][]byte{l, r}, 24)
}

func TestDiffJoinTheta(t *testing.T) {
	w := window.NewCount(8, 8)
	q := query.NewBuilder("dth").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	p := mustCompile(t, q)
	if p.eqJoin.ok {
		t.Fatal("θ-join must not take the equality path")
	}
	l, r := genPair(96, 6)
	runDifferential(t, q, [2][]byte{l, r}, 20)
}
