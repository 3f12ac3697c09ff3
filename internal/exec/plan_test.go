package exec

import (
	"math"
	"math/rand"
	"testing"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// synSchema mirrors the paper's synthetic 32-byte tuple: a 64-bit
// timestamp and six 32-bit values, the first a float.
var synSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "a", Type: schema.Float32},
	schema.Field{Name: "b", Type: schema.Int32},
	schema.Field{Name: "c", Type: schema.Int32},
	schema.Field{Name: "d", Type: schema.Int32},
	schema.Field{Name: "e", Type: schema.Int32},
	schema.Field{Name: "f", Type: schema.Int32},
)

// genStream builds n synthetic tuples with timestamps 0..n-1 and small
// attribute domains (to force group collisions).
func genStream(n int, seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	b := schema.NewTupleBuilder(synSchema, n)
	for i := 0; i < n; i++ {
		b.Begin().
			Timestamp(int64(i)).
			Float32("a", float32(rnd.Intn(1000))/10).
			Int32("b", int32(rnd.Intn(8))).
			Int32("c", int32(rnd.Intn(100))).
			Int32("d", int32(rnd.Intn(4))).
			Int32("e", rnd.Int31()).
			Int32("f", int32(i))
		_ = i
	}
	return b.Bytes()
}

// runPlan executes a plan over the stream split into batches of batchTuples
// tuples, draining results in task order and flushing open windows. It
// fails the test if an aggregate window complete in its task reaches the
// assembler as a partial instead of as rows.
func runPlan(t *testing.T, p *Plan, stream []byte, batchTuples int) []byte {
	t.Helper()
	return runPlanStreams(t, p, [2][]byte{stream, nil}, batchTuples)
}

func runPlanStreams(t *testing.T, p *Plan, streams [2][]byte, batchTuples int) []byte {
	t.Helper()
	asm := NewAssembler(p)
	var out []byte
	var pos [2]int
	var prevTS [2]int64
	prevTS[0], prevTS[1] = window.NoPrev, window.NoPrev

	more := func() bool {
		for i := 0; i < p.NumInputs(); i++ {
			if pos[i]*p.InputSchema(i).TupleSize() < len(streams[i]) {
				return true
			}
		}
		return false
	}
	for more() {
		var in [2]Batch
		for i := 0; i < p.NumInputs(); i++ {
			s := p.InputSchema(i)
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
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			t.Fatalf("Process: %v", err)
		}
		for _, part := range res.Partials {
			if p.Kind == Aggregate && part.OpenedHere && part.ClosedHere {
				t.Fatalf("window %d is complete in its task but left Process as a partial", part.Window)
			}
		}
		out = asm.Drain(res, out)
		p.ReleaseResult(res)
	}
	return asm.Flush(out)
}

func TestMapIdentity(t *testing.T) {
	q := query.NewBuilder("id").
		From("S", synSchema, window.NewCount(4, 4)).
		MustBuild()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != Map || p.RStream() {
		t.Fatalf("kind = %v", p.Kind)
	}
	stream := genStream(100, 1)
	for _, bt := range []int{1, 7, 100} {
		got := runPlan(t, p, stream, bt)
		if string(got) != string(stream) {
			t.Fatalf("identity output differs at batch size %d", bt)
		}
	}
}

func TestSelection(t *testing.T) {
	q := query.NewBuilder("sel").
		From("S", synSchema, window.NewCount(4, 2)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(4)}).
		MustBuild()
	p, _ := Compile(q)
	stream := genStream(500, 2)
	got := runPlan(t, p, stream, 64)

	tsz := synSchema.TupleSize()
	var want []byte
	for i := 0; i+tsz <= len(stream); i += tsz {
		if synSchema.ReadInt32(stream[i:i+tsz], 2) < 4 {
			want = append(want, stream[i:i+tsz]...)
		}
	}
	if string(got) != string(want) {
		t.Fatalf("selection output: got %d bytes, want %d", len(got), len(want))
	}
}

func TestProjectionByteForwardingAndCompute(t *testing.T) {
	q := query.NewBuilder("proj").
		From("S", synSchema, window.NewUnbounded()).
		Select("timestamp", "b").
		SelectAs(expr.Arith{Op: expr.Div, Left: expr.Col("c"), Right: expr.IntConst(10)}, "cDiv").
		SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(2)}, "a2").
		MustBuild()
	p, _ := Compile(q)
	out := p.OutputSchema()
	if out.NumFields() != 4 {
		t.Fatalf("out schema = %s", out)
	}
	stream := genStream(50, 3)
	got := runPlan(t, p, stream, 8)
	osz := out.TupleSize()
	if len(got) != 50*osz {
		t.Fatalf("output size = %d", len(got))
	}
	tsz := synSchema.TupleSize()
	for i := 0; i < 50; i++ {
		in := stream[i*tsz : (i+1)*tsz]
		o := got[i*osz : (i+1)*osz]
		if out.Timestamp(o) != synSchema.Timestamp(in) {
			t.Fatalf("tuple %d ts", i)
		}
		if out.ReadInt32(o, 1) != synSchema.ReadInt32(in, 2) {
			t.Fatalf("tuple %d b copy", i)
		}
		if out.ReadInt(o, 2) != int64(synSchema.ReadInt32(in, 3)/10) {
			t.Fatalf("tuple %d cDiv: %d vs %d", i, out.ReadInt(o, 2), synSchema.ReadInt32(in, 3)/10)
		}
		wantA2 := float64(synSchema.ReadFloat32(in, 1)) * 2
		if math.Abs(out.ReadFloat(o, 3)-wantA2) > 1e-6 {
			t.Fatalf("tuple %d a2", i)
		}
	}
}

// refScalarAgg computes the expected per-window scalar aggregates naively.
type refRow struct {
	cnt             int64
	sum, minV, maxV float64
	maxTS           int64
}

func refWindows(t *testing.T, stream []byte, w window.Def, filter func([]byte) bool, arg func([]byte) float64) map[int64]*refRow {
	t.Helper()
	tsz := synSchema.TupleSize()
	n := len(stream) / tsz
	out := map[int64]*refRow{}
	add := func(k int64, tuple []byte, ts int64) {
		r := out[k]
		if r == nil {
			r = &refRow{minV: math.Inf(1), maxV: math.Inf(-1), maxTS: math.MinInt64}
			out[k] = r
		}
		if ts > r.maxTS {
			r.maxTS = ts
		}
		if filter != nil && !filter(tuple) {
			return
		}
		r.cnt++
		v := arg(tuple)
		r.sum += v
		if v < r.minV {
			r.minV = v
		}
		if v > r.maxV {
			r.maxV = v
		}
	}
	for i := 0; i < n; i++ {
		tuple := stream[i*tsz : (i+1)*tsz]
		ts := synSchema.Timestamp(tuple)
		switch w.Kind {
		case window.Count:
			for k := int64(0); w.Start(k) <= int64(i); k++ {
				if int64(i) < w.End(k) {
					add(k, tuple, ts)
				}
			}
		case window.Time:
			for k := int64(0); w.Start(k) <= ts; k++ {
				if ts < w.End(k) {
					add(k, tuple, ts)
				}
			}
		}
	}
	return out
}

func TestScalarAggSlidingCount(t *testing.T) {
	for _, batch := range []int{5, 16, 37, 1000} {
		w := window.NewCount(10, 3)
		q := query.NewBuilder("agg").
			From("S", synSchema, w).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			Aggregate(query.Avg, expr.Col("a"), "m").
			MustBuild()
		p, _ := Compile(q)
		if !p.invertApl {
			t.Fatal("prefix path not selected")
		}
		stream := genStream(200, 4)
		got := runPlan(t, p, stream, batch)
		ref := refWindows(t, stream, w, nil, func(tu []byte) float64 {
			return float64(synSchema.ReadFloat32(tu, 1))
		})

		out := p.OutputSchema()
		osz := out.TupleSize()
		nRows := len(got) / osz
		// Every window with ≥1 tuple yields a row, in window order.
		var wantRows int64
		for range ref {
			wantRows++
		}
		if int64(nRows) != wantRows {
			t.Fatalf("batch %d: rows = %d, want %d", batch, nRows, wantRows)
		}
		prevTS := int64(-1)
		for r := 0; r < nRows; r++ {
			row := got[r*osz : (r+1)*osz]
			k := int64(r) // windows dense from 0 for this stream
			want := ref[k]
			if want == nil {
				t.Fatalf("unexpected row %d", r)
			}
			if got := out.ReadInt(row, 2); got != want.cnt {
				t.Fatalf("batch %d window %d count = %d, want %d", batch, k, got, want.cnt)
			}
			if got := out.ReadFloat(row, 1); math.Abs(got-want.sum) > 1e-3 {
				t.Fatalf("batch %d window %d sum = %g, want %g", batch, k, got, want.sum)
			}
			if got := out.ReadFloat(row, 3); math.Abs(got-want.sum/float64(want.cnt)) > 1e-3 {
				t.Fatalf("batch %d window %d avg mismatch", batch, k)
			}
			ts := out.Timestamp(row)
			if ts < prevTS {
				t.Fatalf("row timestamps regress: %d after %d", ts, prevTS)
			}
			prevTS = ts
		}
	}
}

func TestScalarAggMinMaxDirectPath(t *testing.T) {
	w := window.NewCount(8, 4)
	q := query.NewBuilder("mm").
		From("S", synSchema, w).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Col("a"), "hi").
		MustBuild()
	p, _ := Compile(q)
	if p.invertApl {
		t.Fatal("min/max must disable the prefix path")
	}
	stream := genStream(100, 5)
	got := runPlan(t, p, stream, 13)
	ref := refWindows(t, stream, w, nil, func(tu []byte) float64 {
		return float64(synSchema.ReadFloat32(tu, 1))
	})
	out := p.OutputSchema()
	osz := out.TupleSize()
	for r := 0; r*osz < len(got); r++ {
		row := got[r*osz : (r+1)*osz]
		k := int64(r)
		if math.Abs(out.ReadFloat(row, 1)-ref[k].minV) > 1e-4 ||
			math.Abs(out.ReadFloat(row, 2)-ref[k].maxV) > 1e-4 {
			t.Fatalf("window %d min/max mismatch", k)
		}
	}
}

func TestScalarAggWithFilter(t *testing.T) {
	w := window.NewTime(20, 5)
	filter := expr.Cmp{Op: expr.Eq, Left: expr.Col("d"), Right: expr.IntConst(1)}
	q := query.NewBuilder("fagg").
		From("S", synSchema, w).
		Where(filter).
		Aggregate(query.Count, nil, "n").
		MustBuild()
	p, _ := Compile(q)
	stream := genStream(300, 6)
	got := runPlan(t, p, stream, 41)
	ref := refWindows(t, stream, w,
		func(tu []byte) bool { return synSchema.ReadInt32(tu, 4) == 1 },
		func(tu []byte) float64 { return 0 })

	out := p.OutputSchema()
	osz := out.TupleSize()
	rows := map[int64]int64{}
	// Map rows back to windows via position: collect counts in order and
	// compare against ref windows (non-empty ones) in window order.
	var ks []int64
	for k, r := range ref {
		if r.cnt > 0 {
			ks = append(ks, k)
		}
	}
	if len(got)/osz != len(ks) {
		t.Fatalf("rows = %d, want %d", len(got)/osz, len(ks))
	}
	for r := 0; r*osz < len(got); r++ {
		rows[int64(r)] = out.ReadInt(got[r*osz:(r+1)*osz], 1)
	}
	// Window order equals emission order; sort ks.
	for i := 0; i < len(ks); i++ {
		for j := i + 1; j < len(ks); j++ {
			if ks[j] < ks[i] {
				ks[i], ks[j] = ks[j], ks[i]
			}
		}
	}
	for i, k := range ks {
		if rows[int64(i)] != ref[k].cnt {
			t.Fatalf("window %d count = %d, want %d", k, rows[int64(i)], ref[k].cnt)
		}
	}
}
