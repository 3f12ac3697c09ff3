package exec

import (
	"math/rand"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

// Operator microbenchmarks for the CPU batch kernels. Each benchmark
// processes one batch per iteration; b.SetBytes makes `go test -bench`
// report MB/s, and tuples/s = bytes/s ÷ 32.

const benchTuples = 4096

func benchProcess(b *testing.B, q *query.Query, streams [2][]byte) {
	b.Helper()
	p, err := Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	var in [2]Batch
	total := 0
	for i := 0; i < p.NumInputs(); i++ {
		in[i] = Batch{Data: streams[i], Ctx: window.Context{PrevTimestamp: window.NoPrev}}
		total += len(streams[i])
	}
	res := p.NewResult()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Reset()
		if err := p.Process(in, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpSelection(b *testing.B) {
	q := query.NewBuilder("sel").
		From("S", synSchema, window.NewCount(1024, 1024)).
		Where(expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(6)},
			expr.Cmp{Op: expr.Ge, Left: expr.Col("a"), Right: expr.FloatConst(10)},
		}}).
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 1), nil})
}

// BenchmarkOpSelectOr is the benchmark's select query: the paper's
// SELECT_10, a 10-way OR of c < 512/(i+1) over tumbling 1024-tuple
// windows, with c uniform in [0, 1024) so about half the tuples pass.
func BenchmarkOpSelectOr(b *testing.B) {
	preds := make([]expr.Pred, 10)
	for i := range preds {
		preds[i] = expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(int64(512 / (i + 1)))}
	}
	q := query.NewBuilder("selor").
		From("S", synSchema, window.NewCount(1024, 1024)).
		Where(expr.Or{Preds: preds}).
		MustBuild()
	s := genStream(benchTuples, 8)
	rnd := rand.New(rand.NewSource(8))
	tsz, c := synSchema.TupleSize(), synSchema.IndexOf("c")
	for i := 0; i < benchTuples; i++ {
		synSchema.WriteInt32(s[i*tsz:], c, int32(rnd.Intn(1024)))
	}
	benchProcess(b, q, [2][]byte{s, nil})
}

func BenchmarkOpProjection(b *testing.B) {
	q := query.NewBuilder("proj").
		From("S", synSchema, window.NewCount(1024, 1024)).
		Select("timestamp", "b", "c").
		SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(3)}, "a3").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 2), nil})
}

func BenchmarkOpAggScalarPrefix(b *testing.B) {
	q := query.NewBuilder("agg").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		Aggregate(query.Avg, expr.Col("c"), "m").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 3), nil})
}

func BenchmarkOpAggScalarDirect(b *testing.B) {
	q := query.NewBuilder("mm").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Col("a"), "hi").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 4), nil})
}

func BenchmarkOpAggGroupedRolling(b *testing.B) {
	q := query.NewBuilder("grp").
		From("S", synSchema, window.NewCount(512, 64)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild()
	benchProcess(b, q, [2][]byte{genStream(benchTuples, 5), nil})
}

// BenchmarkOpGroupBy64 is benchmark/'s groupby query at that workload's task
// size: COUNT and SUM(a1) GROUP BY a2 over 8 192 synthetic tuples
// (ϕ 256 KiB) with a2 uniform over 64 values, Count(1024, 64) windows.
func BenchmarkOpGroupBy64(b *testing.B) {
	q := workload.GroupBy([]query.AggFunc{query.Count, query.Sum}, 64, window.NewCount(1024, 64))
	g := workload.NewSynGen(10)
	g.Groups = 64
	benchProcess(b, q, [2][]byte{g.Next(nil, 8192), nil})
}

func BenchmarkOpJoinEqui(b *testing.B) {
	w := window.NewCount(256, 256)
	q := query.NewBuilder("jeq").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	l, r := genPair(1024, 64)
	benchProcess(b, q, [2][]byte{l, r})
}

func BenchmarkOpJoinTheta(b *testing.B) {
	w := window.NewCount(128, 128)
	q := query.NewBuilder("jth").
		FromAs("L", "L", leftSchema, w).
		FromAs("R", "R", rightSchema, w).
		Join(expr.Cmp{Op: expr.Lt, Left: expr.Col("v"), Right: expr.Col("w")}).
		MustBuild()
	l, r := genPair(1024, 256)
	benchProcess(b, q, [2][]byte{l, r})
}

// BenchmarkOpJoinBand is the benchmark's join-band query: a band θ-join
// A.c < B.c < A.c+8 with no equality conjunct, over 32-byte synthetic
// tuples whose join column is uniform in [0, 1024).
func BenchmarkOpJoinBand(b *testing.B) {
	w := window.NewCount(128, 128)
	cA, cB := expr.QCol("A", "c"), expr.QCol("B", "c")
	q := query.NewBuilder("jband").
		FromAs("A", "A", synSchema, w).
		FromAs("B", "B", synSchema, w).
		Join(expr.And{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: cA, Right: cB},
			expr.Cmp{Op: expr.Lt, Left: cB, Right: expr.Arith{Op: expr.Add, Left: cA, Right: expr.IntConst(8)}},
		}}).
		SelectAs(expr.QCol("A", "timestamp"), "timestamp").
		SelectAs(cA, "c").
		SelectAs(expr.QCol("B", "timestamp"), "ts2").
		MustBuild()
	band := func(seed int64) []byte {
		s := genStream(benchTuples/4, seed)
		rnd := rand.New(rand.NewSource(seed))
		tsz, c := synSchema.TupleSize(), synSchema.IndexOf("c")
		for i := 0; i < len(s)/tsz; i++ {
			synSchema.WriteInt32(s[i*tsz:], c, int32(rnd.Intn(1024)))
		}
		return s
	}
	benchProcess(b, q, [2][]byte{band(6), band(7)})
}
