package exec

import (
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// fieldsOf maps a ColumnsRead mask to field names for readable failures.
func fieldsOf(t *testing.T, p *Plan, input int) map[string]bool {
	t.Helper()
	read := p.ColumnsRead(input)
	s := p.InputSchema(input)
	if len(read) != s.NumFields() {
		t.Fatalf("mask has %d entries for %d fields", len(read), s.NumFields())
	}
	got := map[string]bool{}
	for f, r := range read {
		if r {
			got[s.Field(f).Name] = true
		}
	}
	return got
}

func expectFields(t *testing.T, got map[string]bool, want ...string) {
	t.Helper()
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for f := range wantSet {
		if !got[f] {
			t.Errorf("field %s not marked as column-read", f)
		}
	}
	for f := range got {
		if !wantSet[f] {
			t.Errorf("field %s marked as column-read but never referenced", f)
		}
	}
}

// TestColumnsRead pins the per-plan sets of fields read: the benchmark's
// shred replay materialises exactly these fields and reports their count
// as ringbuf.shred_cols.
func TestColumnsRead(t *testing.T) {
	compile := func(q *query.Query) *Plan {
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q.Name, err)
		}
		return p
	}

	t.Run("identity-selection", func(t *testing.T) {
		// Identity projections copy whole rows for their output, so
		// nothing is marked — not even the filtered field.
		q := query.NewBuilder("sel").
			From("S", synSchema, window.NewCount(64, 64)).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(30)}).
			MustBuild()
		expectFields(t, fieldsOf(t, compile(q), 0)) // none
	})

	t.Run("projection", func(t *testing.T) {
		// Forwarded fields, computed writers and the filter all count.
		q := query.NewBuilder("proj").
			From("S", synSchema, window.NewCount(64, 64)).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(30)}).
			Select("timestamp", "a").
			SelectAs(expr.Arith{Op: expr.Add, Left: expr.Col("d"), Right: expr.IntConst(1)}, "d1").
			MustBuild()
		expectFields(t, fieldsOf(t, compile(q), 0), "timestamp", "a", "c", "d")
	})

	// The filter's compares read their fields through the batch
	// predicate: an OR of typed compares and a mixed-domain compare (Int32
	// column against a float constant, evaluated as a register program)
	// both mark the compared field.
	for _, c := range []struct {
		name   string
		filter expr.Pred
		want   []string
	}{
		{"or-filter", expr.Or{Preds: []expr.Pred{
			expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(30)},
			expr.Cmp{Op: expr.Gt, Left: expr.Col("d"), Right: expr.IntConst(2)},
		}}, []string{"timestamp", "a", "c", "d"}},
		{"mixed-domain-filter", expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.FloatConst(30.5)},
			[]string{"timestamp", "a", "c"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := query.NewBuilder(c.name).
				From("S", synSchema, window.NewCount(64, 64)).
				Where(c.filter).
				Select("timestamp", "a").
				MustBuild()
			expectFields(t, fieldsOf(t, compile(q), 0), c.want...)
		})
	}

	t.Run("aggregation", func(t *testing.T) {
		q := query.NewBuilder("agg").
			From("S", synSchema, window.NewCount(512, 64)).
			Aggregate(query.Sum, expr.Col("a"), "sum_a").
			MustBuild()
		expectFields(t, fieldsOf(t, compile(q), 0), "a")
	})

	t.Run("grouped", func(t *testing.T) {
		q := query.NewBuilder("grouped").
			From("S", synSchema, window.NewCount(512, 64)).
			Aggregate(query.Sum, expr.Col("a"), "sum_a").
			GroupBy("b").
			MustBuild()
		expectFields(t, fieldsOf(t, compile(q), 0), "a", "b")
	})

	t.Run("join", func(t *testing.T) {
		q := query.NewBuilder("join").
			FromAs("A", "A", synSchema, window.NewCount(64, 64)).
			FromAs("B", "B", synSchema, window.NewCount(64, 64)).
			Join(expr.Cmp{Op: expr.Eq, Left: expr.QCol("A", "b"), Right: expr.QCol("B", "c")}).
			MustBuild()
		p := compile(q)
		left := fieldsOf(t, p, 0)
		right := fieldsOf(t, p, 1)
		if !left["b"] {
			t.Errorf("left key b not marked: %v", left)
		}
		if !right["c"] {
			t.Errorf("right key c not marked: %v", right)
		}
	})
}
