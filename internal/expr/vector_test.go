package expr

import (
	"math"
	"math/rand"
	"testing"

	"saber/internal/schema"
)

// randSchema builds a schema with a timestamp and nf random-typed fields.
func randSchema(rnd *rand.Rand, nf int) *schema.Schema {
	fields := []schema.Field{{Name: "ts", Type: schema.Int64}}
	types := []schema.Type{schema.Int32, schema.Int64, schema.Float32, schema.Float64}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < nf; i++ {
		fields = append(fields, schema.Field{Name: names[i], Type: types[rnd.Intn(len(types))]})
	}
	return schema.MustNew(fields...)
}

// randBatch fills a packed batch of n tuples, seeding a mix of small
// values (so integer == hits), zeros (division guards) and NaNs/infs.
func randBatch(rnd *rand.Rand, s *schema.Schema, n int) []byte {
	data := make([]byte, n*s.TupleSize())
	for i := 0; i < n; i++ {
		t := data[i*s.TupleSize():]
		for f := 0; f < s.NumFields(); f++ {
			switch s.Field(f).Type {
			case schema.Int32:
				s.WriteInt32(t, f, int32(rnd.Intn(9)-4))
			case schema.Int64:
				s.WriteInt64(t, f, int64(rnd.Intn(9)-4))
			case schema.Float32:
				switch rnd.Intn(8) {
				case 0:
					s.WriteFloat32(t, f, float32(math.NaN()))
				case 1:
					s.WriteFloat32(t, f, float32(math.Inf(1)))
				default:
					s.WriteFloat32(t, f, float32(rnd.NormFloat64()))
				}
			case schema.Float64:
				switch rnd.Intn(8) {
				case 0:
					s.WriteFloat64(t, f, math.NaN())
				case 1:
					s.WriteFloat64(t, f, math.Inf(-1))
				default:
					s.WriteFloat64(t, f, rnd.NormFloat64())
				}
			}
		}
	}
	return data
}

// randExpr generates a random numeric expression tree over s.
func randExpr(rnd *rand.Rand, s *schema.Schema, depth int) Expr {
	if depth <= 0 || rnd.Intn(3) == 0 {
		switch rnd.Intn(4) {
		case 0:
			return IntConst(rnd.Intn(7) - 3)
		case 1:
			if rnd.Intn(6) == 0 {
				return FloatConst(math.NaN())
			}
			return FloatConst(rnd.NormFloat64())
		default:
			return Col(s.Field(rnd.Intn(s.NumFields())).Name)
		}
	}
	if rnd.Intn(6) == 0 {
		return Neg{E: randExpr(rnd, s, depth-1)}
	}
	op := ArithOp(rnd.Intn(5))
	return Arith{Op: op, Left: randExpr(rnd, s, depth-1), Right: randExpr(rnd, s, depth-1)}
}

// deepExpr is a right-deep chain of depth binary nodes: deeper than
// maxVecRegs, it has no register program and runs per row.
func deepExpr(rnd *rand.Rand, s *schema.Schema, depth int) Expr {
	if depth == 0 {
		return randExpr(rnd, s, 0)
	}
	op := ArithOp(rnd.Intn(3)) // Add, Sub, Mul: never a float %
	return Arith{Op: op, Left: randExpr(rnd, s, 0), Right: deepExpr(rnd, s, depth-1)}
}

// randPred generates a random predicate tree over s.
func randPred(rnd *rand.Rand, s *schema.Schema, depth int) Pred {
	if depth <= 0 || rnd.Intn(3) == 0 {
		return Cmp{Op: CmpOp(rnd.Intn(6)), Left: randExpr(rnd, s, 1), Right: randExpr(rnd, s, 1)}
	}
	switch rnd.Intn(4) {
	case 0:
		return Not{P: randPred(rnd, s, depth-1)}
	case 1:
		n := rnd.Intn(3)
		ps := make([]Pred, n)
		for i := range ps {
			ps[i] = randPred(rnd, s, depth-1)
		}
		return Or{Preds: ps}
	default:
		n := rnd.Intn(3)
		ps := make([]Pred, n)
		for i := range ps {
			ps[i] = randPred(rnd, s, depth-1)
		}
		return And{Preds: ps}
	}
}

// compileOK compiles e, reporting whether it compiles in the scalar path
// (float % is a static error there).
func compileOK(e Expr, r Resolver) (*NumProgram, bool) {
	p, err := CompileNum(e, r)
	return p, err == nil
}

// withCols attaches column views to a single-stream batch the way the
// columnar ring does: every field gets an entry, a dense copy of the field
// where bit f of mask is set and nil (row fallback) elsewhere.
func withCols(s *schema.Schema, in BatchInput, mask uint64) BatchInput {
	in.LCols, in.LColOffs = make([][]byte, s.NumFields()), make([]int32, s.NumFields())
	for f := range in.LCols {
		off, w := s.Offset(f), s.Field(f).Type.Size()
		in.LColOffs[f] = int32(off)
		if mask&(1<<f) == 0 {
			continue
		}
		col := make([]byte, in.N*w)
		for i := 0; i < in.N; i++ {
			copy(col[i*w:], in.L[i*in.LStride+off:][:w])
		}
		in.LCols[f] = col
	}
	return in
}

// rowFreeIn returns in without its row bytes when the program claims it
// can run from the attached views alone, so the checks below also pin
// RowFree: a wrong claim reads nil rows and panics or mismatches.
func rowFreeIn(in BatchInput, rowFree func(has func(side, off int) bool) bool) (BatchInput, bool) {
	has := func(side, off int) bool { return side == 0 && in.colView(0, int32(off)) != nil }
	if in.LCols == nil || in.N == 0 || !rowFree(has) {
		return in, false
	}
	in.L = nil
	return in, true
}

// checkPred asserts that EvalBatch's selection vector over in equals the
// rows where the per-row Eval passes; want is computed from rows.
func checkPred(t *testing.T, vs *VecScratch, p *PredProgram, pr Pred, rows, in BatchInput) {
	t.Helper()
	var want []int32
	for i := 0; i < rows.N; i++ {
		if p.Eval(rows.row(i)) {
			want = append(want, int32(i))
		}
	}
	sel := p.EvalBatch(vs, nil, in)
	if len(sel) != len(want) {
		t.Fatalf("pred %v (cols %v, rows %v): selection %v, want %v", pr, in.LCols != nil, in.L != nil, sel, want)
	}
	for i := range sel {
		if sel[i] != want[i] {
			t.Fatalf("pred %v (cols %v, rows %v): selection %v, want %v", pr, in.LCols != nil, in.L != nil, sel, want)
		}
	}
}

// checkNum asserts that EvalBatchFloat/EvalBatchInt over in equal the
// per-row EvalFloat/EvalInt over rows.
func checkNum(t *testing.T, vs *VecScratch, p *NumProgram, e Expr, rows, in BatchInput) {
	t.Helper()
	fcol := p.EvalBatchFloat(vs, nil, in)
	icol := p.EvalBatchInt(vs, nil, in)
	if len(fcol) != in.N || len(icol) != in.N {
		t.Fatalf("expr %v: column length %d/%d, want %d", e, len(fcol), len(icol), in.N)
	}
	for i := 0; i < in.N; i++ {
		wantF := p.EvalFloat(rows.row(i))
		wantI := p.EvalInt(rows.row(i))
		// Bitwise equality, except that any NaN matches any NaN: when
		// both operands of a commutative op are NaN, which payload
		// propagates depends on operand register order, which the
		// compiler is free to choose differently for the closure and
		// the loop. Comparisons and conversions treat all NaNs alike,
		// so this is not an observable semantic difference.
		if math.Float64bits(fcol[i]) != math.Float64bits(wantF) &&
			!(math.IsNaN(fcol[i]) && math.IsNaN(wantF)) {
			t.Fatalf("expr %v row %d (cols %v): batch float %v (%x), scalar %v (%x)",
				e, i, in.LCols != nil, fcol[i], math.Float64bits(fcol[i]), wantF, math.Float64bits(wantF))
		}
		if icol[i] != wantI {
			t.Fatalf("expr %v row %d (cols %v): batch int %d, scalar %d", e, i, in.LCols != nil, icol[i], wantI)
		}
	}
}

// leafKinds counts the typed (selCol) and general (selNum) compare leaves
// of a predicate's selection-vector tree.
func leafKinds(nd *selNode) (col, num int) {
	switch nd.kind {
	case selCol:
		return 1, 0
	case selNum:
		return 0, 1
	}
	for i := range nd.kids {
		c, n := leafKinds(&nd.kids[i])
		col, num = col+c, num+n
	}
	return col, num
}

// TestVectorNumDifferential: random trees over random schemas/batches —
// batch float/int evaluation must be bit-identical to per-tuple scalar,
// from the rows and from a random subset of column views. Every tenth
// tree is deeper than the register file and runs per row.
func TestVectorNumDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	var vs VecScratch
	lowered, perRow, rowFree := 0, 0, 0
	for iter := 0; iter < 400; iter++ {
		s := randSchema(rnd, 1+rnd.Intn(6))
		r := SingleResolver{Schema: s}
		e := randExpr(rnd, s, 1+rnd.Intn(3))
		if iter%10 == 0 {
			e = deepExpr(rnd, s, maxVecRegs+rnd.Intn(4))
		}
		p, ok := compileOK(e, r)
		if !ok {
			continue
		}
		if p.batch != nil {
			lowered++
		} else {
			perRow++
		}
		n := rnd.Intn(64) // includes empty batches
		in := BatchInput{L: randBatch(rnd, s, n), LStride: s.TupleSize(), N: n}
		checkNum(t, &vs, p, e, in, in)
		cols := withCols(s, in, rnd.Uint64())
		checkNum(t, &vs, p, e, in, cols)
		if bare, ok := rowFreeIn(cols, p.RowFree); ok {
			rowFree++
			checkNum(t, &vs, p, e, in, bare)
		}
	}
	if lowered == 0 || perRow == 0 || rowFree == 0 {
		t.Fatalf("degenerate run: %d register programs, %d per-row trees, %d row-free runs", lowered, perRow, rowFree)
	}
}

// TestVectorPredDifferential: random predicates — EvalBatch's selection
// vector must match per-tuple Eval exactly, including NaN compares, from
// the rows and from a random subset of column views.
func TestVectorPredDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var vs VecScratch
	colLeaves, numLeaves, rowFree := 0, 0, 0
	for iter := 0; iter < 400; iter++ {
		s := randSchema(rnd, 1+rnd.Intn(6))
		r := SingleResolver{Schema: s}
		pr := randPred(rnd, s, 1+rnd.Intn(3))
		if iter%10 == 0 {
			pr = Or{Preds: []Pred{pr, Cmp{Op: CmpOp(rnd.Intn(6)), Left: deepExpr(rnd, s, maxVecRegs), Right: randExpr(rnd, s, 1)}}}
		}
		p, err := CompilePred(pr, r)
		if err != nil {
			continue
		}
		c, k := leafKinds(&p.root)
		colLeaves, numLeaves = colLeaves+c, numLeaves+k
		n := rnd.Intn(64)
		in := BatchInput{L: randBatch(rnd, s, n), LStride: s.TupleSize(), N: n}
		checkPred(t, &vs, p, pr, in, in)
		cols := withCols(s, in, rnd.Uint64())
		checkPred(t, &vs, p, pr, in, cols)
		if bare, ok := rowFreeIn(cols, p.RowFree); ok {
			rowFree++
			checkPred(t, &vs, p, pr, in, bare)
		}
	}
	if colLeaves == 0 || numLeaves == 0 || rowFree == 0 {
		t.Fatalf("degenerate run: %d typed leaves, %d general leaves, %d row-free runs", colLeaves, numLeaves, rowFree)
	}
}

// FuzzEvalBatch derives a schema, a batch, a predicate and an expression
// from its input and checks batch evaluation against the per-row scalar
// evaluators, with and without column views.
func FuzzEvalBatch(f *testing.F) {
	f.Add(int64(1), uint16(4), uint16(2), uint16(33), uint64(0xff))
	f.Fuzz(func(t *testing.T, seed int64, nf, depth, n uint16, cols uint64) {
		rnd := rand.New(rand.NewSource(seed))
		s := randSchema(rnd, 1+int(nf)%8)
		r := SingleResolver{Schema: s}
		rows := int(n) % 300
		in := BatchInput{L: randBatch(rnd, s, rows), LStride: s.TupleSize(), N: rows}
		viewed := withCols(s, in, cols)
		var vs VecScratch
		pr := randPred(rnd, s, int(depth)%5)
		if p, err := CompilePred(pr, r); err == nil {
			checkPred(t, &vs, p, pr, in, in)
			checkPred(t, &vs, p, pr, in, viewed)
		}
		e := randExpr(rnd, s, int(depth)%5)
		if depth >= 64 {
			e = deepExpr(rnd, s, int(depth)%32)
		}
		if p, ok := compileOK(e, r); ok {
			checkNum(t, &vs, p, e, in, in)
			checkNum(t, &vs, p, e, in, viewed)
		}
	})
}

// TestVectorFusedShapes pins the typed compare leaves: single
// column⋈constant compares of every type and op, const-on-left flips,
// AND-of-compares, all-rejected and empty And/Or.
func TestVectorFusedShapes(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	s := schema.MustNew(
		schema.Field{Name: "ts", Type: schema.Int64},
		schema.Field{Name: "i32", Type: schema.Int32},
		schema.Field{Name: "i64", Type: schema.Int64},
		schema.Field{Name: "f32", Type: schema.Float32},
		schema.Field{Name: "f64", Type: schema.Float64},
	)
	r := SingleResolver{Schema: s}
	n := 257
	data := randBatch(rnd, s, n)
	in := BatchInput{L: data, LStride: s.TupleSize(), N: n}

	var cases []Pred
	for _, col := range []string{"i32", "i64", "f32", "f64"} {
		for op := Eq; op <= Ge; op++ {
			cases = append(cases,
				Cmp{Op: op, Left: Col(col), Right: IntConst(1)},
				Cmp{Op: op, Left: Col(col), Right: FloatConst(0.25)},
				Cmp{Op: op, Left: FloatConst(math.NaN()), Right: Col(col)},
				Cmp{Op: op, Left: IntConst(-2), Right: Col(col)}, // const-on-left flip
			)
		}
	}
	cases = append(cases,
		And{}, // empty: all pass
		Or{},  // empty: all reject
		Cmp{Op: Lt, Left: Col("i64"), Right: IntConst(math.MinInt32)}, // all rejected
		And{Preds: []Pred{
			Cmp{Op: Ge, Left: Col("i32"), Right: IntConst(0)},
			Cmp{Op: Lt, Left: Col("f64"), Right: FloatConst(1)},
			Cmp{Op: Ne, Left: Col("i64"), Right: IntConst(2)},
		}},
	)

	var vs VecScratch
	var sel []int32
	for _, pr := range cases {
		p, err := CompilePred(pr, r)
		if err != nil {
			t.Fatalf("compile %v: %v", pr, err)
		}
		sel = p.EvalBatch(&vs, sel, in)
		j := 0
		for i := 0; i < n; i++ {
			pass := p.EvalTuple(data[i*s.TupleSize():])
			inSel := j < len(sel) && sel[j] == int32(i)
			if inSel {
				j++
			}
			if pass != inSel {
				t.Fatalf("pred %v row %d: scalar %v, selected %v", pr, i, pass, inSel)
			}
		}
		if j != len(sel) {
			t.Fatalf("pred %v: %d extra selection entries", pr, len(sel)-j)
		}
	}
}

// TestVectorBroadcast pins the stride-0 broadcast path used by the join
// inner pass: one left tuple against a whole right batch. Compares that
// read only the left side are decided once per batch, and the left
// tuples alternate L.i32 between -1 and 1 so those verdicts go both ways.
func TestVectorBroadcast(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	s := schema.MustNew(
		schema.Field{Name: "ts", Type: schema.Int64},
		schema.Field{Name: "i32", Type: schema.Int32},
		schema.Field{Name: "i64", Type: schema.Int64},
		schema.Field{Name: "f32", Type: schema.Float32},
		schema.Field{Name: "f64", Type: schema.Float64},
	)
	r := PairResolver{Left: s, Right: s, LeftAlias: "L", RightAlias: "R"}
	const nLeft, n = 4, 100
	lData := randBatch(rnd, s, nLeft)
	for ti := 0; ti < nLeft; ti++ {
		s.WriteInt32(lData[ti*s.TupleSize():], 1, int32(1-2*(ti%2)))
	}
	rData := randBatch(rnd, s, n)

	preds := []Pred{
		Cmp{Op: Le, Left: QCol("L", "f32"), Right: QCol("R", "i64")},
		And{Preds: []Pred{
			Cmp{Op: Ge, Left: QCol("L", "i64"), Right: QCol("R", "i64")},
			Cmp{Op: Lt, Left: QCol("R", "f32"), Right: FloatConst(0.5)},
		}},
		Or{Preds: []Pred{
			Cmp{Op: Lt, Left: QCol("L", "i32"), Right: IntConst(0)},
			Cmp{Op: Gt, Left: QCol("R", "f64"), Right: FloatConst(0.5)},
		}},
		Not{P: Or{Preds: []Pred{
			Cmp{Op: Ge, Left: QCol("L", "i64"), Right: QCol("R", "i64")},
			Cmp{Op: Eq, Left: QCol("R", "i32"), Right: IntConst(1)},
		}}},
		// A mixed-domain compare of the broadcast side alone.
		Cmp{Op: Lt, Left: QCol("L", "i32"), Right: FloatConst(0.5)},
		And{Preds: []Pred{
			Not{P: Cmp{Op: Gt, Left: FloatConst(0.5), Right: QCol("L", "i32")}},
			Cmp{Op: Ne, Left: QCol("R", "i64"), Right: IntConst(2)},
		}},
	}
	var vs VecScratch
	for _, pr := range preds {
		p, err := CompilePred(pr, r)
		if err != nil {
			t.Fatalf("compile %v: %v", pr, err)
		}
		for ti := 0; ti < nLeft; ti++ {
			left := lData[ti*s.TupleSize() : (ti+1)*s.TupleSize()]
			in := BatchInput{L: left, LStride: 0, R: rData, RStride: s.TupleSize(), N: n}
			checkPred(t, &vs, p, pr, in, in)
		}
	}
}
