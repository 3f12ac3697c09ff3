package exec

import (
	"fmt"
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
// attribute domains (to force group collisions). a is a multiple of 1/64
// in [0, 100), so sums of a are exact in any order.
func genStream(n int, seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	b := schema.NewTupleBuilder(synSchema, n)
	for i := 0; i < n; i++ {
		b.Begin().
			Timestamp(int64(i)).
			Float32("a", float32(rnd.Intn(6400))/64).
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
	return runPlanLayout(t, p, streams, batchTuples, false)
}

// runPlanLayout is runPlanStreams with a choice of batch layout: with cols
// set, every non-empty batch also carries stale column segments
// (staleCols), so a kernel that read Batch.Cols instead of the rows would
// miss the oracle. Every kernel reads rows only.
func runPlanLayout(t *testing.T, p *Plan, streams [2][]byte, batchTuples int, cols bool) []byte {
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
			if cols {
				in[i].Cols = staleCols(p.InputSchema(i), data)
			}
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

// staleCols builds a column segment for every field of a batch of rows
// (Cols[j] holds field j of every tuple, packed at the field's width),
// with every byte complemented: segments that disagree with the rows
// they sit beside. It attaches nothing to an empty batch.
func staleCols(s *schema.Schema, data []byte) [][]byte {
	tsz := s.TupleSize()
	n := len(data) / tsz
	if n == 0 {
		return nil
	}
	cols := make([][]byte, s.NumFields())
	for f := range cols {
		off, w := s.Offset(f), s.Field(f).Type.Size()
		col := make([]byte, 0, n*w)
		for k := 0; k < n; k++ {
			for _, b := range data[k*tsz+off : k*tsz+off+w] {
				col = append(col, ^b)
			}
		}
		cols[f] = col
	}
	return cols
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

// TestSelectionAcrossMapBlocks runs each selection over one task whose
// size sits at and around multiples of mapBlock, so processMap filters
// and compacts several blocks, the last one possibly short; the output
// must be every passing tuple, in input order, exactly once.
func TestSelectionAcrossMapBlocks(t *testing.T) {
	preds := []struct {
		name string
		pred expr.Pred
		keep func(tup []byte, i int) bool
	}{
		{"b<4", expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(4)},
			func(tup []byte, _ int) bool { return synSchema.ReadInt32(tup, 2) < 4 }},
		{"all", expr.Cmp{Op: expr.Ge, Left: expr.Col("f"), Right: expr.IntConst(0)},
			func([]byte, int) bool { return true }},
		{"last", expr.Cmp{Op: expr.Ge, Left: expr.Col("f"), Right: expr.IntConst(3*mapBlock + 6)},
			func(_ []byte, i int) bool { return i >= 3*mapBlock+6 }},
	}
	for _, pc := range preds {
		p := mustCompile(t, query.NewBuilder("sel").
			From("S", synSchema, window.NewCount(4, 4)).
			Where(pc.pred).
			MustBuild())
		for _, n := range []int{mapBlock - 1, mapBlock, mapBlock + 1, 3*mapBlock + 7} {
			t.Run(fmt.Sprintf("%s/n=%d", pc.name, n), func(t *testing.T) {
				stream := genStream(n, 5)
				got := runPlan(t, p, stream, n)
				tsz := synSchema.TupleSize()
				var want []byte
				for i := 0; i < n; i++ {
					if tup := stream[i*tsz : (i+1)*tsz]; pc.keep(tup, i) {
						want = append(want, tup...)
					}
				}
				if string(got) != string(want) {
					t.Fatalf("output differs: got %d tuples, want %d", len(got)/tsz, len(want)/tsz)
				}
			})
		}
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

func TestScalarAggSlidingCount(t *testing.T) {
	q := query.NewBuilder("agg").
		From("S", synSchema, window.NewCount(10, 3)).
		Aggregate(query.Sum, expr.Col("a"), "s").
		Aggregate(query.Count, nil, "n").
		Aggregate(query.Avg, expr.Col("a"), "m").
		MustBuild()
	stream := genStream(200, 4)
	want := runOracle(t, q, [2][]byte{stream, nil})
	for _, batch := range []int{5, 16, 37, 1000} {
		p := mustCompile(t, q)
		if !p.invertApl {
			t.Fatal("prefix path not selected")
		}
		want.check(t, p, runPlan(t, p, stream, batch), batch)
	}
}

func TestScalarAggMinMaxDirectPath(t *testing.T) {
	q := query.NewBuilder("mm").
		From("S", synSchema, window.NewCount(8, 4)).
		Aggregate(query.Min, expr.Col("a"), "lo").
		Aggregate(query.Max, expr.Col("a"), "hi").
		MustBuild()
	p := mustCompile(t, q)
	if p.invertApl {
		t.Fatal("min/max must disable the prefix path")
	}
	stream := genStream(100, 5)
	runOracle(t, q, [2][]byte{stream, nil}).check(t, p, runPlan(t, p, stream, 13), 13)
}

func TestScalarAggWithFilter(t *testing.T) {
	q := query.NewBuilder("fagg").
		From("S", synSchema, window.NewTime(20, 5)).
		Where(expr.Cmp{Op: expr.Eq, Left: expr.Col("d"), Right: expr.IntConst(1)}).
		Aggregate(query.Count, nil, "n").
		MustBuild()
	p := mustCompile(t, q)
	stream := genStream(300, 6)
	runOracle(t, q, [2][]byte{stream, nil}).check(t, p, runPlan(t, p, stream, 41), 41)
}
