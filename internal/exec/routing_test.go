package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// These tests pin the split between the worker and the result stage: a
// window that opens and closes inside one task is rendered into
// TaskResult.Stream by Process, only fragments of windows spanning tasks
// travel as partials (runPlan fails on a complete partial), and the
// assembled output does not depend on where that split falls.

// routeCase is one aggregate query over a window definition.
type routeCase struct {
	name   string
	build  func(w window.Def) *query.Query
	direct bool // force the non-incremental path
}

func routeCases() []routeCase {
	grouped := func(w window.Def) *query.Query {
		return query.NewBuilder("g").From("S", synSchema, w).
			Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("c"), Right: expr.IntConst(60)}).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			GroupBy("b").
			MustBuild()
	}
	return []routeCase{
		{name: "scalar-prefix", build: func(w window.Def) *query.Query {
			return query.NewBuilder("sp").From("S", synSchema, w).
				Aggregate(query.Sum, expr.Col("a"), "s").
				Aggregate(query.Count, nil, "n").
				MustBuild()
		}},
		{name: "scalar-direct-having", build: func(w window.Def) *query.Query {
			return query.NewBuilder("sd").From("S", synSchema, w).
				Aggregate(query.Min, expr.Col("a"), "lo").
				Aggregate(query.Max, expr.Col("c"), "hi").
				Aggregate(query.Count, nil, "n").
				Having(expr.Cmp{Op: expr.Gt, Left: expr.Col("n"), Right: expr.IntConst(2)}).
				MustBuild()
		}},
		{name: "grouped-rolling", build: grouped},
		{name: "grouped-direct", build: grouped, direct: true},
		{name: "grouped-having", build: func(w window.Def) *query.Query {
			return query.NewBuilder("gh").From("S", synSchema, w).
				Aggregate(query.Sum, expr.Col("c"), "s").
				Aggregate(query.Count, nil, "n").
				GroupBy("b").
				Having(expr.Cmp{Op: expr.Gt, Left: expr.Col("n"), Right: expr.IntConst(1)}).
				MustBuild()
		}},
		{name: "grouped-minmax", build: func(w window.Def) *query.Query {
			return query.NewBuilder("gm").From("S", synSchema, w).
				Aggregate(query.Max, expr.Col("a"), "hi").
				GroupBy("b").
				MustBuild()
		}},
		{name: "distinct", build: func(w window.Def) *query.Query {
			return query.NewBuilder("di").From("S", synSchema, w).
				Select("timestamp", "b").
				Distinct().
				MustBuild()
		}},
	}
}

// gapStream is genStream with timestamps that repeat and skip (steps of
// 0, 1 or 2), so time windows differ from count windows: some hold
// several tuples per instant, some none at all.
func gapStream(n int, seed int64) []byte {
	stream := genStream(n, seed)
	rnd := rand.New(rand.NewSource(seed))
	tsz := synSchema.TupleSize()
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(rnd.Intn(3))
		synSchema.SetTimestamp(stream[i*tsz:], ts)
	}
	return stream
}

// sameWindows splits both outputs into windows by the given row counts
// and requires every window to hold the same set of rows.
func sameWindows(t *testing.T, p *Plan, got, want []byte, counts []int) {
	t.Helper()
	osz := p.OutputSchema().TupleSize()
	total := 0
	for _, c := range counts {
		total += c
	}
	if len(got) != total*osz || len(want) != total*osz {
		t.Fatalf("rows: got %d, reference %d, windows hold %d", len(got)/osz, len(want)/osz, total)
	}
	off := 0
	for k, c := range counts {
		end := off + c*osz
		if g, w := rowsAsSet(p, got[off:end]), rowsAsSet(p, want[off:end]); !slices.Equal(g, w) {
			t.Fatalf("window %d:\n got %v\n want %v", k, g, w)
		}
		off = end
	}
}

// TestCompleteWindowRoutingProperty: for count and time windows, batch
// sizes from one tuple to beyond the window, scalar and grouped plans on
// the incremental and direct paths, HAVING and DISTINCT, over row-only
// batches and batches carrying stale column segments: no complete window
// leaves Process as a partial, and the assembled output equals the
// oracle's window by window.
func TestCompleteWindowRoutingProperty(t *testing.T) {
	const n = 240
	windows := []window.Def{
		window.NewCount(8, 3),
		window.NewCount(6, 6),
		window.NewCount(12, 1),
		window.NewTime(10, 4),
		window.NewTime(5, 5),
	}
	rnd := rand.New(rand.NewSource(21))
	for _, c := range routeCases() {
		for wi, w := range windows {
			stream := gapStream(n, int64(30+wi))
			want := runOracle(t, c.build(w), [2][]byte{stream, nil})
			batches := []int{1, 2, int(w.Size) - 1, int(w.Size), int(w.Size) + 1, 3 * int(w.Size), 1 + rnd.Intn(n)}
			for _, cols := range []bool{true, false} {
				for _, b := range batches {
					if b < 1 {
						continue
					}
					t.Run(fmt.Sprintf("%s/%v/cols=%v/batch=%d", c.name, w, cols, b), func(t *testing.T) {
						p := mustCompile(t, c.build(w))
						if c.direct {
							p.SetIncremental(false)
						}
						want.check(t, p, runPlanLayout(t, p, [2][]byte{stream, nil}, b, cols), b)
					})
				}
			}
		}
	}
}

// TestDrainClosingBeforeComplete: within one task's result, the windows
// its partials close — one whose earlier fragments were lost to a
// quarantined task (no pending entry) and a GPU-style complete partial —
// are emitted before the rows the worker already rendered into Stream.
func TestDrainClosingBeforeComplete(t *testing.T) {
	p := mustCompile(t, query.NewBuilder("ord").
		From("S", synSchema, window.NewCount(4, 4)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		MustBuild())
	part := func(win, ts int64, opened bool) WindowPartial {
		return WindowPartial{Window: win, OpenedHere: opened, ClosedHere: true, Count: 2, MaxTS: ts, Vals: []float64{float64(win), 0}}
	}
	afterGap, gpuComplete, cpuComplete := part(3, 15, false), part(4, 19, true), part(5, 23, true)
	want := p.Finalize(&afterGap, nil)
	want = p.Finalize(&gpuComplete, want)
	want = p.Finalize(&cpuComplete, want)

	res := p.NewResult()
	res.Partials = append(res.Partials, afterGap, gpuComplete)
	res.route(p, cpuComplete)
	if len(res.Partials) != 2 || len(res.Stream) == 0 {
		t.Fatalf("route kept a complete window as a partial: %d partials, %d stream bytes", len(res.Partials), len(res.Stream))
	}
	stamps := func(out []byte) (ts []int64) {
		for i := 0; i < len(out); i += p.OutputSchema().TupleSize() {
			ts = append(ts, p.OutputSchema().Timestamp(out[i:]))
		}
		return ts
	}
	asm := NewAssembler(p)
	if got := asm.Drain(res, nil); string(got) != string(want) {
		t.Fatalf("Drain emitted windows stamped %v, want %v", stamps(got), stamps(want))
	}
	if asm.Pending() != 0 {
		t.Fatalf("%d windows left pending", asm.Pending())
	}
}
