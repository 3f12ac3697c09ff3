package exec

import (
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// Steady-state allocation tests for the aggregate paths: the per-task
// float/int argument columns, prefix arrays, and the grouped key buffer
// all live in the plan's scratch pool, so repeated Process calls over
// same-sized batches must not allocate per tuple or per group. A small
// fixed budget absorbs pool jitter (sync.Pool may miss under the race
// detector) and result-fragment bookkeeping.

func allocQuery(kind string) *query.Query {
	switch kind {
	case "grouped-rolling", "grouped-direct":
		return query.NewBuilder(kind).
			From("S", synSchema, window.NewCount(512, 64)).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b").
			MustBuild()
	case "scalar-prefix":
		return query.NewBuilder(kind).
			From("S", synSchema, window.NewCount(512, 64)).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Avg, expr.Col("c"), "m").
			MustBuild()
	case "scalar-direct":
		return query.NewBuilder(kind).
			From("S", synSchema, window.NewCount(512, 64)).
			Aggregate(query.Min, expr.Col("a"), "lo").
			Aggregate(query.Max, expr.Col("a"), "hi").
			MustBuild()
	}
	panic("unknown kind " + kind)
}

func steadyStateAllocs(tb testing.TB, kind string, cols bool) float64 {
	tb.Helper()
	p, err := Compile(allocQuery(kind))
	if err != nil {
		tb.Fatal(err)
	}
	if kind == "grouped-direct" {
		p.SetIncremental(false)
	}
	in := [2]Batch{{Data: genStream(4096, 9), Ctx: window.Context{PrevTimestamp: window.NoPrev}}}
	if cols {
		in[0].Cols = shredCols(p, 0, in[0].Data)
	}
	res := p.NewResult()
	run := func() {
		res.Reset()
		if err := p.Process(in, res); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the scratch pool and result capacity
		run()
	}
	return testing.AllocsPerRun(20, run)
}

func TestAggregateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	for _, kind := range []string{"grouped-rolling", "grouped-direct", "scalar-prefix", "scalar-direct"} {
		t.Run(kind, func(t *testing.T) {
			for _, cols := range []bool{false, true} {
				name := "rows"
				if cols {
					name = "cols"
				}
				t.Run(name, func(t *testing.T) {
					got := steadyStateAllocs(t, kind, cols)
					// 4096 tuples, 64 windows per batch. Scalar partials draw
					// their accumulators from the result's arena, so those
					// paths must be (near) zero. Grouped partials each carry a
					// snapshot hash table whose ownership transfers to the
					// assembler — inherently a few allocations per window —
					// so their budget is per-window; a regression to per-tuple
					// work (4096+) or per-group scratch still trips it.
					budget := 48.0
					if kind == "grouped-rolling" || kind == "grouped-direct" {
						budget = 64 * 10
					}
					if got > budget {
						t.Errorf("%s/%s: %.0f allocs/op, budget %.0f — a per-task scratch buffer is not pooled", kind, name, got, budget)
					}
				})
			}
		})
	}
}

// BenchmarkAggAllocs reports allocs/op for the aggregate paths; the CI
// bench artifacts track the grouped path at (near) zero.
func BenchmarkAggAllocs(b *testing.B) {
	for _, kind := range []string{"grouped-rolling", "scalar-prefix"} {
		b.Run(kind, func(b *testing.B) {
			p, err := Compile(allocQuery(kind))
			if err != nil {
				b.Fatal(err)
			}
			in := [2]Batch{{Data: genStream(4096, 9), Ctx: window.Context{PrevTimestamp: window.NoPrev}}}
			res := p.NewResult()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res.Reset()
				if err := p.Process(in, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
