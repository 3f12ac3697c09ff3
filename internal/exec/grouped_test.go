package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// rowsAsSet renders output rows as sorted strings (row order within a
// window is not part of the contract, so grouped results compare as
// sets). Floats print in their shortest round-trip form, so equal strings
// mean bit-equal values.
func rowsAsSet(p *Plan, out []byte) []string {
	s := p.OutputSchema()
	osz := s.TupleSize()
	var rows []string
	for i := 0; i+osz <= len(out); i += osz {
		rows = append(rows, s.Format(out[i:i+osz]))
	}
	sort.Strings(rows)
	return rows
}

func groupedPlan(t *testing.T, w window.Def, incremental bool) *Plan {
	t.Helper()
	q := query.NewBuilder("grp").
		From("S", synSchema, w).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	p.SetIncremental(incremental)
	return p
}

// TestGroupedRollingMatchesDirect: the incremental (rolling-table) batch
// operator function must produce exactly what the naive rebuild produces,
// for sliding and tumbling windows and across batch sizes.
func TestGroupedRollingMatchesDirect(t *testing.T) {
	stream := genStream(300, 11)
	for _, w := range []window.Def{
		window.NewCount(16, 4),
		window.NewCount(8, 8),
		window.NewCount(32, 1),
		window.NewTime(25, 5),
		window.NewTime(10, 10),
	} {
		for _, batch := range []int{7, 64, 300} {
			inc := runPlan(t, groupedPlan(t, w, true), stream, batch)
			dir := runPlan(t, groupedPlan(t, w, false), stream, batch)
			a, b := rowsAsSet(groupedPlan(t, w, true), inc), rowsAsSet(groupedPlan(t, w, false), dir)
			if len(a) != len(b) {
				t.Fatalf("%v batch %d: %d vs %d rows", w, batch, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v batch %d row %d:\n inc %s\n dir %s", w, batch, i, a[i], b[i])
				}
			}
		}
	}
}

// TestGroupedAgainstReference checks grouped sums/counts against the
// oracle.
func TestGroupedAgainstReference(t *testing.T) {
	stream := genStream(200, 12)
	p := groupedPlan(t, window.NewCount(20, 5), true)
	runOracle(t, p.Q, [2][]byte{stream, nil}).check(t, p, runPlan(t, p, stream, 23), 23)
}

func TestGroupedMinMaxPath(t *testing.T) {
	w := window.NewCount(10, 10)
	q := query.NewBuilder("gmm").
		From("S", synSchema, w).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Col("a"), "hi").
		GroupBy("d").
		MustBuild()
	p, _ := Compile(q)
	if p.invertApl {
		t.Fatal("grouped min/max must use the direct path")
	}
	stream := genStream(100, 13)
	out := runPlan(t, p, stream, 33)
	// Sanity: lo <= hi on every row, and rows exist.
	s := p.OutputSchema()
	osz := s.TupleSize()
	if len(out) == 0 {
		t.Fatal("no output")
	}
	for i := 0; i+osz <= len(out); i += osz {
		lo, hi := s.ReadFloat(out[i:], 2), s.ReadFloat(out[i:], 3)
		if lo > hi || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			t.Fatalf("row lo=%g hi=%g", lo, hi)
		}
	}
}

func TestHavingFiltersRows(t *testing.T) {
	w := window.NewCount(10, 10)
	build := func(having bool) *Plan {
		b := query.NewBuilder("hav").
			From("S", synSchema, w).
			Aggregate(query.Count, nil, "n").
			GroupBy("b")
		if having {
			b.Having(expr.Cmp{Op: expr.Gt, Left: expr.Col("n"), Right: expr.IntConst(1)})
		}
		return mustCompile(t, b.MustBuild())
	}
	stream := genStream(200, 14)
	all := runPlan(t, build(false), stream, 50)
	filtered := runPlan(t, build(true), stream, 50)
	s := build(true).OutputSchema()
	osz := s.TupleSize()
	if len(filtered) >= len(all) {
		t.Fatalf("having did not filter: %d vs %d rows", len(filtered)/osz, len(all)/osz)
	}
	for i := 0; i+osz <= len(filtered); i += osz {
		if s.ReadInt(filtered[i:], 2) <= 1 {
			t.Fatal("having let a row through")
		}
	}
}

func mustCompile(t *testing.T, q *query.Query) *Plan {
	t.Helper()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDistinct(t *testing.T) {
	q := query.NewBuilder("dist").
		From("S", synSchema, window.NewCount(50, 50)).
		Select("timestamp", "b").
		Distinct().
		MustBuild()
	p := mustCompile(t, q)
	stream := genStream(100, 15)
	out := runPlan(t, p, stream, 17)
	s := p.OutputSchema()
	osz := s.TupleSize()
	// Two tumbling windows of 50 tuples; b has ≤8 distinct values each.
	rows := len(out) / osz
	if rows == 0 || rows > 16 {
		t.Fatalf("distinct rows = %d", rows)
	}
	seen := map[string]bool{}
	for i := 0; i+osz <= len(out); i += osz {
		k := fmt.Sprintf("%d@%d", s.ReadInt32(out[i:], 1), s.Timestamp(out[i:])/50)
		if seen[k] {
			t.Fatalf("duplicate distinct row %s", k)
		}
		seen[k] = true
	}
}

func TestDistinctValidation(t *testing.T) {
	q := query.NewBuilder("badDist").
		From("S", synSchema, window.NewCount(8, 8)).
		Select("b"). // timestamp not first
		Distinct().
		MustBuild()
	if _, err := Compile(q); err == nil {
		t.Fatal("distinct without leading timestamp compiled")
	}
	q2 := query.NewBuilder("badDist2").
		From("S", synSchema, window.NewCount(8, 8)).
		Select("timestamp").
		Distinct().
		MustBuild()
	if _, err := Compile(q2); err == nil {
		t.Fatal("distinct with only timestamp compiled")
	}
}

// TestBatchingInvarianceProperty is the central hybrid-model invariant
// (paper §3): the query result must not depend on how the stream is cut
// into batches. We run the same grouped sliding aggregation under random
// batch sizes — smaller and larger than the window, so windows complete
// in the worker and windows assembled across tasks both occur — and
// compare with the oracle window by window (runPlan also checks that no
// complete window leaves Process as a partial).
func TestBatchingInvarianceProperty(t *testing.T) {
	stream := gapStream(256, 16)
	for _, w := range []window.Def{window.NewCount(12, 5), window.NewTime(12, 5)} {
		want := runOracle(t, groupedPlan(t, w, true).Q, [2][]byte{stream, nil})
		for _, incremental := range []bool{true, false} {
			f := func(batchSeed uint8) bool {
				batch := int(batchSeed%60) + 1
				p := groupedPlan(t, w, incremental)
				want.check(t, p, runPlan(t, p, stream, batch), batch)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
