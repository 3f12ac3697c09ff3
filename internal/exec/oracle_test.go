package exec

import (
	"bytes"
	"math"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// The oracle evaluates a query naively from the window semantics of the
// paper's §2, sharing nothing with the kernels but the scalar expression
// evaluators: for every window k it collects the tuples whose position
// (count windows: stream index; time windows: timestamp) lies in
// [Start(k), End(k)), applies WHERE per tuple, and renders the window —
// scalar or grouped aggregates, HAVING, DISTINCT, or the join pairs. Map
// queries ignore windows (IStream) and render every passing tuple in
// stream order. A join's WHERE is folded into its join predicate by the
// front end, so the oracle applies only JoinPred to joins.
//
// The synthetic streams keep float values on multiples of 1/64, so every
// sum is exact in any order and the comparison can be bit-exact.

// oracleResult is the oracle's output: all rows, window by window, and
// the number of rows of each window (nil for IStream queries, whose
// output is compared byte for byte).
type oracleResult struct {
	out    []byte
	counts []int
}

// check fails unless got, a plan's assembled output from tasks of batch
// tuples per input (0 if unknown), equals the oracle's: byte for byte
// when row order is part of the contract (joinedInOneTask), window by
// window as row sets otherwise.
func (o oracleResult) check(t *testing.T, p *Plan, got []byte, batch int) {
	t.Helper()
	if o.counts == nil || joinedInOneTask(p, batch) {
		if !bytes.Equal(got, o.out) {
			t.Fatalf("output differs from the oracle: got %d bytes, want %d", len(got), len(o.out))
		}
		return
	}
	sameWindows(t, p, got, o.out, o.counts)
}

// joinedInOneTask reports whether p is a join whose every window lies
// inside one task on both inputs — tumbling count windows and a batch
// that is a multiple of their size — so each window's rows come from one
// nested-loop pass, in the oracle's (a, b) order. (IStream queries are
// always ordered; aggregate rows within a window, and join rows of windows
// assembled from several tasks, have no defined order.)
func joinedInOneTask(p *Plan, batch int) bool {
	if p.Kind != Join || batch <= 0 {
		return false
	}
	for i := 0; i < 2; i++ {
		w := p.Window(i)
		if w.Kind != window.Count || !w.Tumbling() || int64(batch)%w.Size != 0 {
			return false
		}
	}
	return true
}

type oracleAgg struct {
	fn  query.AggFunc
	arg *expr.NumProgram // nil for count
	out int              // output field
}

// groupCol copies one input field into one output field.
type groupCol struct{ in, out int }

type oracle struct {
	out      *schema.Schema
	where    *expr.PredProgram
	joinPred *expr.PredProgram
	having   *expr.PredProgram
	proj     []*expr.NumProgram
	aggs     []oracleAgg
	groups   []groupCol
}

// runOracle evaluates q over streams (one per query input).
func runOracle(t testing.TB, q *query.Query, streams [2][]byte) oracleResult {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("oracle: %s: %v", q.Name, err)
		}
	}
	if q.OutputSchema() == nil {
		must(q.Validate())
	}
	o := &oracle{out: q.OutputSchema()}
	res := q.Resolver()
	var err error
	if q.Where != nil && !q.IsJoin() {
		o.where, err = expr.CompilePred(q.Where, res)
		must(err)
	}
	if q.IsJoin() {
		o.joinPred, err = expr.CompilePred(q.JoinPred, res)
		must(err)
	}
	if q.Having != nil {
		o.having, err = expr.CompilePred(q.Having, expr.SingleResolver{Schema: o.out})
		must(err)
	}
	switch {
	case q.Distinct:
		for j, item := range q.Projection {
			c := item.Expr.(expr.Column)
			if c.Name == "timestamp" {
				continue
			}
			_, fi, _, err := res.Resolve(c)
			must(err)
			o.groups = append(o.groups, groupCol{in: fi, out: j})
		}
	case q.IsAggregation():
		for j, g := range q.GroupBy {
			_, fi, _, err := res.Resolve(g)
			must(err)
			o.groups = append(o.groups, groupCol{in: fi, out: 1 + j})
		}
		for i, a := range q.Aggregates {
			ag := oracleAgg{fn: a.Func, out: 1 + len(q.GroupBy) + i}
			if a.Func != query.Count {
				ag.arg, err = expr.CompileNum(a.Arg, res)
				must(err)
			}
			o.aggs = append(o.aggs, ag)
		}
	default:
		for _, item := range q.Projection {
			prog, err := expr.CompileNum(item.Expr, res)
			must(err)
			o.proj = append(o.proj, prog)
		}
	}

	if !q.IsJoin() && !q.IsAggregation() && !q.Distinct {
		var out []byte
		for _, tu := range tuplesOf(q.Inputs[0].Schema, streams[0]) {
			if o.where == nil || o.where.EvalTuple(tu) {
				out = o.project(out, tu, nil)
			}
		}
		return oracleResult{out: out}
	}

	for _, input := range q.Inputs {
		if input.Window.Kind == window.Unbounded {
			t.Fatalf("oracle: %s: RStream query over an unbounded window", q.Name)
		}
	}
	var r oracleResult
	for k := int64(0); ; k++ {
		var in [2][][]byte
		started := false
		for i, input := range q.Inputs {
			var s bool
			in[i], s = windowTuples(input, streams[i], k)
			started = started || s
		}
		if !started {
			return r
		}
		before := len(r.out)
		if q.IsJoin() {
			for _, a := range in[0] {
				for _, b := range in[1] {
					if o.joinPred.Eval(a, b) {
						r.out = o.project(r.out, a, b)
					}
				}
			}
		} else {
			r.out = o.aggregate(r.out, q.Inputs[0].Schema, in[0])
		}
		r.counts = append(r.counts, (len(r.out)-before)/o.out.TupleSize())
	}
}

func tuplesOf(s *schema.Schema, stream []byte) [][]byte {
	tsz := s.TupleSize()
	tuples := make([][]byte, 0, len(stream)/tsz)
	for off := 0; off+tsz <= len(stream); off += tsz {
		tuples = append(tuples, stream[off:off+tsz])
	}
	return tuples
}

// windowTuples returns input's tuples in window k, in stream order, and
// whether the window starts at or before the stream's last position.
func windowTuples(input query.Input, stream []byte, k int64) ([][]byte, bool) {
	w, s := input.Window, input.Schema
	var in [][]byte
	last := int64(-1)
	for i, tu := range tuplesOf(s, stream) {
		pos := int64(i)
		if w.Kind == window.Time {
			pos = s.Timestamp(tu)
		}
		if pos >= w.Start(k) && pos < w.End(k) {
			in = append(in, tu)
		}
		last = pos
	}
	return in, last >= 0 && w.Start(k) <= last
}

// project appends the output tuple of one input tuple (r == nil) or one
// join pair.
func (o *oracle) project(dst, l, r []byte) []byte {
	if o.proj == nil {
		dst = append(dst, l...)
		return append(dst, r...)
	}
	row := make([]byte, o.out.TupleSize())
	for i, prog := range o.proj {
		switch o.out.Field(i).Type {
		case schema.Int32:
			o.out.WriteInt32(row, i, int32(prog.EvalInt(l, r)))
		case schema.Int64:
			o.out.WriteInt64(row, i, prog.EvalInt(l, r))
		default:
			o.out.WriteFloat(row, i, prog.EvalFloat(l, r))
		}
	}
	return append(dst, row...)
}

// aggregate appends one window's aggregate rows: one per group of the
// window's passing tuples (a single group without GROUP BY), stamped with
// the group's last timestamp — or, for a scalar aggregate, the window's
// last timestamp, filtered tuples included — and kept if HAVING holds.
func (o *oracle) aggregate(dst []byte, in *schema.Schema, tuples [][]byte) []byte {
	type group struct {
		first []byte // a member tuple, for the group columns
		n     int64
		ts    int64
		vals  []float64
	}
	groups := map[string]*group{}
	var order []string
	lastTS := int64(math.MinInt64)
	for _, tu := range tuples {
		ts := in.Timestamp(tu)
		lastTS = ts
		if o.where != nil && !o.where.EvalTuple(tu) {
			continue
		}
		var key []byte
		for _, c := range o.groups {
			key = append(key, tu[in.Offset(c.in):in.Offset(c.in)+in.Field(c.in).Type.Size()]...)
		}
		g := groups[string(key)]
		if g == nil {
			g = &group{first: tu, vals: make([]float64, len(o.aggs))}
			for a, ag := range o.aggs {
				switch ag.fn {
				case query.Min:
					g.vals[a] = math.Inf(1)
				case query.Max:
					g.vals[a] = math.Inf(-1)
				}
			}
			groups[string(key)] = g
			order = append(order, string(key))
		}
		g.n++
		g.ts = ts
		for a, ag := range o.aggs {
			if ag.arg == nil {
				continue
			}
			v := ag.arg.EvalFloat(tu, nil)
			switch ag.fn {
			case query.Min:
				g.vals[a] = math.Min(g.vals[a], v)
			case query.Max:
				g.vals[a] = math.Max(g.vals[a], v)
			default:
				g.vals[a] += v
			}
		}
	}
	for _, key := range order {
		g := groups[key]
		row := make([]byte, o.out.TupleSize())
		ts := g.ts
		if len(o.groups) == 0 {
			ts = lastTS
		}
		o.out.SetTimestamp(row, ts)
		for _, c := range o.groups {
			w := in.Field(c.in).Type.Size()
			copy(row[o.out.Offset(c.out):o.out.Offset(c.out)+w], g.first[in.Offset(c.in):in.Offset(c.in)+w])
		}
		for a, ag := range o.aggs {
			switch ag.fn {
			case query.Count:
				o.out.WriteInt64(row, ag.out, g.n)
			case query.Avg:
				o.out.WriteFloat(row, ag.out, g.vals[a]/float64(g.n))
			default:
				o.out.WriteFloat(row, ag.out, g.vals[a])
			}
		}
		if o.having == nil || o.having.EvalTuple(row) {
			dst = append(dst, row...)
		}
	}
	return dst
}
