//go:build !race

// Allocation counts are meaningless under the race detector, whose
// sync.Pool drops a share of Puts at random, so this file is left out of
// -race builds.

package exec

import (
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// Steady-state allocation tests for the aggregate paths: the per-task
// float/int argument columns, prefix arrays, the grouped key buffer and
// row→slot vector all live in the plan's scratch pool, and partial group
// tables in its table pool, so repeated Process calls over same-sized
// batches must not allocate per tuple, per group or per window. Results
// are released with ReleaseResult, as the engine does, so snapshot tables
// go back to the pool. A small fixed budget absorbs result-fragment
// bookkeeping.

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
		in[0].Cols = staleCols(p.InputSchema(0), in[0].Data)
	}
	run := func() {
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			tb.Fatal(err)
		}
		p.ReleaseResult(res)
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
					// their accumulators from the result's arena and grouped
					// ones their tables from the pool, so every path must be
					// (near) zero: a regression to per-window (64+), per-tuple
					// (4096+) or per-group work trips the budget. A batch
					// that carries column segments costs nothing extra: no
					// kernel reads them.
					const budget = 48.0
					if got > budget {
						t.Errorf("%s/%s: %.0f allocs/op, budget %.0f — a per-task scratch buffer is not pooled", kind, name, got, budget)
					}
				})
			}
		})
	}
}

// BenchmarkAggAllocs reports allocs/op for the rolling group-by and the
// prefix-sum aggregate, releasing each result as the engine does; both
// stay at about one. CI's operator bench smoke step runs it once.
func BenchmarkAggAllocs(b *testing.B) {
	for _, kind := range []string{"grouped-rolling", "scalar-prefix"} {
		b.Run(kind, func(b *testing.B) {
			p, err := Compile(allocQuery(kind))
			if err != nil {
				b.Fatal(err)
			}
			in := [2]Batch{{Data: genStream(4096, 9), Ctx: window.Context{PrevTimestamp: window.NoPrev}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := p.NewResult()
				if err := p.Process(in, res); err != nil {
					b.Fatal(err)
				}
				p.ReleaseResult(res)
			}
		})
	}
}
