package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// Kind classifies a compiled plan by its execution strategy.
type Kind uint8

// Plan kinds.
const (
	// Map covers projection and selection: stateless per-tuple transforms
	// with IStream semantics; windows do not affect the output.
	Map Kind = iota
	// Aggregate covers windowed aggregation, GROUP BY, HAVING and
	// DISTINCT, with RStream semantics.
	Aggregate
	// Join covers the windowed θ-join, with RStream semantics.
	Join
	// UDFOp covers user-defined operator functions, with RStream
	// semantics over opaque partials.
	UDFOp
)

// String names the kind.
func (k Kind) String() string {
	return [...]string{"map", "aggregate", "join", "udf"}[k]
}

// aggSpec is one compiled aggregate, with its output descriptor: the byte
// offset and type of its output field (aggSpec.write).
type aggSpec struct {
	fn     query.AggFunc
	arg    *expr.NumProgram // nil for count
	op     MergeOp
	outOff int
	outTyp schema.Type
}

type fieldWriter struct {
	// Byte-forwarding path: copy size bytes from srcOff of the tuple on
	// side src. size == 0 selects the computed path. srcField is the
	// source schema field index (see ColumnsRead).
	src      int
	srcOff   int
	srcField int
	size     int
	// Computed path.
	prog   *expr.NumProgram
	outIdx int
	// Precomputed output location (outOff = out.Offset(outIdx)).
	outOff int
	outTyp schema.Type
}

// Plan is a compiled query: the batch operator function (Process), the
// assembly operator function (Merge/Finalize), and the metadata the engine
// needs to route data. Plans are safe for concurrent Process calls.
type Plan struct {
	Q    *query.Query
	Kind Kind

	in      [2]*schema.Schema
	windows [2]window.Def
	out     *schema.Schema

	filter   *expr.PredProgram // σ / WHERE; nil = accept all
	writers  []fieldWriter     // output construction; nil = identity copy
	joinPred *expr.PredProgram

	aggs      []aggSpec
	ops       []MergeOp
	groupIdx  []int // group-by field indices in the input schema
	keyLen    int
	grouped   bool
	invertApl bool              // incremental (rolling) computation applies
	having    *expr.PredProgram // over the output schema

	// colOffs/colW hold each input schema's field byte offsets within the
	// row tuple and field widths, precomputed for the key gathers.
	colOffs [2][]int32
	colW    [2][]int
	// keyRange, when ok, is the key-range join path: the join predicate
	// bounds an integer right-side column to a finite band around an
	// integer left-side column.
	keyRange keyRange

	resultPool  sync.Pool // *TaskResult
	tablePool   sync.Pool // *HashTable
	scratchPool sync.Pool // *scratch
}

// keyRange records that the join predicate implies x+lo ≤ y ≤ x+hi for
// the integer key columns x = a (left input) and y = b (right input).
// Equality is the band lo == hi == 0.
//
// exact reports that the predicate is nothing but the conjuncts the band
// was built from, so for a left key in [kMin, kMax] — where no x+c of
// theirs, nor x+lo or x+hi, overflows — it holds exactly on the band.
type keyRange struct {
	ok         bool
	a, b       intCol
	lo, hi     int64
	exact      bool
	kMin, kMax int64
}

// intCol locates an integer column within a row tuple.
type intCol struct {
	off int
	typ schema.Type
}

// read returns the column as a sign-extended int64 — the domain every
// integer comparison in expr uses.
func (c intCol) read(tuple []byte) int64 {
	if c.typ == schema.Int32 {
		return int64(int32(binary.LittleEndian.Uint32(tuple[c.off:])))
	}
	return int64(binary.LittleEndian.Uint64(tuple[c.off:]))
}

type scratch struct {
	frags   []window.Fragment
	fragsB  []window.Fragment
	prefixC []int64   // prefix counts
	prefixV []float64 // prefix sums, nAggs-strided
	rolling *HashTable

	// Batch-evaluation scratch: the register columns, the selection
	// vectors, and the per-batch value columns. All are owned by one
	// Process call at a time via the scratch pool.
	vec  expr.VecScratch
	sel  []int32   // filter selection vector
	selJ []int32   // join inner-pass selection vector
	cols []float64 // aggregate argument columns, col-major (arg a at [a*n:(a+1)*n])
	icol []int64   // computed projection column (integer programs)
	fcol []float64 // computed projection column (float programs)

	// keyBuf is the grouped-aggregation key assembly buffer; pooled here
	// so the grouped kernels stop allocating one per task.
	keyBuf []byte
	// slots maps each selected row to its group's slot in the rolling
	// table, indexed like sel; filled once per task (rowSlots).
	slots []int32

	// Join scratch: reused fragment pairing and the right fragment's
	// key-pointer array.
	pairs     []joinPair
	kpa       []keyPtr
	kpaPacked []uint64
}

// Compile builds an executable plan from a validated query.
func Compile(q *query.Query) (*Plan, error) {
	if q.OutputSchema() == nil {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Plan{Q: q, out: q.OutputSchema()}
	for i, in := range q.Inputs {
		p.in[i] = in.Schema
		p.windows[i] = in.Window
		for f := 0; f < in.Schema.NumFields(); f++ {
			p.colOffs[i] = append(p.colOffs[i], int32(in.Schema.Offset(f)))
			p.colW[i] = append(p.colW[i], in.Schema.Field(f).Type.Size())
		}
	}
	res := q.Resolver()

	var err error
	if q.Where != nil {
		if p.filter, err = expr.CompilePred(q.Where, res); err != nil {
			return nil, err
		}
	}

	switch {
	case q.UDF != nil:
		p.Kind = UDFOp
		if q.IsJoin() && p.windows[0].Kind != p.windows[1].Kind {
			return nil, fmt.Errorf("exec: two-input UDF windows must have the same kind")
		}
	case q.IsJoin():
		p.Kind = Join
		if p.windows[0].Kind != p.windows[1].Kind {
			return nil, fmt.Errorf("exec: join windows must have the same kind")
		}
		if p.joinPred, err = expr.CompilePred(q.JoinPred, res); err != nil {
			return nil, err
		}
		p.keyRange = detectKeyRange(q.JoinPred, res)
		if err := p.compileWriters(res); err != nil {
			return nil, err
		}
	case q.IsAggregation() || q.Distinct:
		p.Kind = Aggregate
		if err := p.compileAggregation(res); err != nil {
			return nil, err
		}
	default:
		p.Kind = Map
		if err := p.compileWriters(res); err != nil {
			return nil, err
		}
	}

	if q.Having != nil {
		p.having, err = expr.CompilePred(q.Having, expr.SingleResolver{Schema: p.out})
		if err != nil {
			return nil, err
		}
	}

	p.resultPool.New = func() any { return &TaskResult{} }
	p.tablePool.New = func() any {
		return NewHashTable(p.keyLen, len(p.aggs), 64)
	}
	p.scratchPool.New = func() any { return &scratch{} }
	return p, nil
}

// compileWriters builds the output tuple constructors for Map and Join
// plans. An empty projection is the identity (select *): for Map a whole-
// tuple copy, for Join the concatenation of both sides.
func (p *Plan) compileWriters(res expr.Resolver) error {
	if len(p.Q.Projection) == 0 {
		p.writers = nil
		return nil
	}
	out := p.out
	for i, item := range p.Q.Projection {
		w := fieldWriter{outIdx: i, outOff: out.Offset(i), outTyp: out.Field(i).Type}
		if c, ok := item.Expr.(expr.Column); ok {
			side, fi, s, err := res.Resolve(c)
			if err != nil {
				return err
			}
			if s.Field(fi).Type == out.Field(i).Type {
				w.src = side
				w.srcOff = s.Offset(fi)
				w.srcField = fi
				w.size = s.Field(fi).Type.Size()
				p.writers = append(p.writers, w)
				continue
			}
		}
		prog, err := expr.CompileNum(item.Expr, res)
		if err != nil {
			return err
		}
		w.prog = prog
		p.writers = append(p.writers, w)
	}
	return nil
}

// detectKeyRange looks for integer columns x (left input) and y (right
// input) that the join predicate — the predicate itself or its top-level
// AND conjuncts — relates as y op x+c, with op one of = < ≤ > ≥ in either
// operand order and the left operand written x, x+c, c+x or x−c for an
// integer constant c. The conjuncts on the first such pair intersect into
// y ∈ [x+lo, x+hi]. The path applies only when both bounds are finite —
// equality or a band: a one-sided range passes about half the pairs, and
// sorting for it costs more than the nested loop saves. Float columns, ≠
// and OR never match; unless the band is the whole predicate, joinCross
// re-tests the full predicate on every candidate, so conjuncts left
// unmatched still apply.
func detectKeyRange(pred expr.Pred, res expr.Resolver) keyRange {
	conjuncts := []expr.Pred{pred}
	if and, ok := pred.(expr.And); ok {
		conjuncts = and.Preds
	}
	kr := keyRange{lo: math.MinInt64, hi: math.MaxInt64}
	hasLo, hasHi := false, false
	used := 0            // conjuncts that went into the band
	var cMin, cMax int64 // extremes of 0 and the used conjuncts' constants
	for _, c := range conjuncts {
		cmp, ok := c.(expr.Cmp)
		if !ok {
			continue
		}
		x, y, op, k, ok := keyConjunct(cmp, res)
		if !ok || used > 0 && (x != kr.a || y != kr.b) {
			continue
		}
		switch op {
		case expr.Eq:
			kr.lo, kr.hi = max(kr.lo, k), min(kr.hi, k)
			hasLo, hasHi = true, true
		case expr.Lt:
			if k == math.MinInt64 {
				continue
			}
			kr.hi, hasHi = min(kr.hi, k-1), true
		case expr.Le:
			kr.hi, hasHi = min(kr.hi, k), true
		case expr.Gt:
			if k == math.MaxInt64 {
				continue
			}
			kr.lo, hasLo = max(kr.lo, k+1), true
		case expr.Ge:
			kr.lo, hasLo = max(kr.lo, k), true
		}
		kr.a, kr.b = x, y
		used++
		cMin, cMax = min(cMin, k), max(cMax, k)
	}
	kr.ok = hasLo && hasHi
	if kr.ok {
		cMin, cMax = min(cMin, kr.lo, kr.hi), max(cMax, kr.lo, kr.hi)
		kr.exact = used == len(conjuncts)
		kr.kMin, kr.kMax = math.MinInt64-cMin, math.MaxInt64-cMax
	}
	return kr
}

// mirrorOp[op] is the comparison that holds with op's operands swapped.
var mirrorOp = [...]expr.CmpOp{expr.Eq: expr.Eq, expr.Ne: expr.Ne,
	expr.Lt: expr.Gt, expr.Le: expr.Ge, expr.Gt: expr.Lt, expr.Ge: expr.Le}

// keyConjunct matches cmp as y op x+c (see detectKeyRange) and returns
// x, y, op rewritten so that y is its left operand, and c.
func keyConjunct(cmp expr.Cmp, res expr.Resolver) (intCol, intCol, expr.CmpOp, int64, bool) {
	if cmp.Op != expr.Ne {
		for _, swap := range []bool{false, true} {
			l, r, op := cmp.Left, cmp.Right, cmp.Op
			if swap {
				l, r, op = r, l, mirrorOp[op]
			}
			yc, isCol := l.(expr.Column)
			xc, c, isOff := colPlusConst(r)
			if !isCol || !isOff {
				continue
			}
			y, yok := resolveIntCol(yc, 1, res)
			x, xok := resolveIntCol(xc, 0, res)
			if xok && yok {
				return x, y, op, c, true
			}
		}
	}
	return intCol{}, intCol{}, 0, 0, false
}

// colPlusConst matches e as column+c: a bare column, col+c, c+col or
// col−c with c an integer constant.
func colPlusConst(e expr.Expr) (expr.Column, int64, bool) {
	switch v := e.(type) {
	case expr.Column:
		return v, 0, true
	case expr.Arith:
		lc, lCol := v.Left.(expr.Column)
		rc, rCol := v.Right.(expr.Column)
		lk, lConst := v.Left.(expr.IntConst)
		rk, rConst := v.Right.(expr.IntConst)
		switch {
		case v.Op == expr.Add && lCol && rConst:
			return lc, int64(rk), true
		case v.Op == expr.Add && lConst && rCol:
			return rc, int64(lk), true
		case v.Op == expr.Sub && lCol && rConst && rk != math.MinInt64:
			return lc, -int64(rk), true
		}
	}
	return expr.Column{}, 0, false
}

// resolveIntCol locates c if it is an integer column of the given input.
func resolveIntCol(c expr.Column, input int, res expr.Resolver) (intCol, bool) {
	side, f, s, err := res.Resolve(c)
	if err != nil || side != input {
		return intCol{}, false
	}
	typ := s.Field(f).Type
	if typ != schema.Int32 && typ != schema.Int64 {
		return intCol{}, false
	}
	return intCol{off: s.Offset(f), typ: typ}, true
}

func (p *Plan) compileAggregation(res expr.Resolver) error {
	in := p.in[0]
	if p.Q.Distinct {
		// DISTINCT groups on every non-timestamp projected column; the
		// output tuples are the group keys themselves, prefixed by the
		// group's max timestamp — so the first projected column must be
		// the timestamp.
		if p.out.NumFields() < 2 || p.out.Field(0).Name != "timestamp" || p.out.Field(0).Type != schema.Int64 {
			return fmt.Errorf("exec: distinct queries must project timestamp first")
		}
		p.grouped = true
		p.invertApl = true
		for _, item := range p.Q.Projection {
			c, ok := item.Expr.(expr.Column)
			if !ok {
				return fmt.Errorf("exec: distinct supports plain column projections only")
			}
			if c.Name == "timestamp" {
				continue
			}
			fi := in.IndexOf(c.Name)
			if fi < 0 {
				return fmt.Errorf("exec: unknown distinct column %q", c.Name)
			}
			p.groupIdx = append(p.groupIdx, fi)
			p.keyLen += in.Field(fi).Type.Size()
		}
		if p.keyLen == 0 {
			return fmt.Errorf("exec: distinct needs at least one non-timestamp column")
		}
		return nil
	}

	for _, g := range p.Q.GroupBy {
		_, fi, s, err := res.Resolve(g)
		if err != nil {
			return err
		}
		p.groupIdx = append(p.groupIdx, fi)
		p.keyLen += s.Field(fi).Type.Size()
	}
	p.grouped = len(p.groupIdx) > 0

	p.invertApl = true
	aggF := 1 + len(p.groupIdx) // timestamp + group columns precede aggs
	for i, a := range p.Q.Aggregates {
		f := aggF + i
		spec := aggSpec{fn: a.Func, outOff: p.out.Offset(f), outTyp: p.out.Field(f).Type}
		switch a.Func {
		case query.Count, query.Sum, query.Avg:
			spec.op = OpAdd
		case query.Min:
			spec.op = OpMin
			p.invertApl = false
		case query.Max:
			spec.op = OpMax
			p.invertApl = false
		}
		if a.Arg != nil {
			prog, err := expr.CompileNum(a.Arg, res)
			if err != nil {
				return err
			}
			spec.arg = prog
		}
		p.aggs = append(p.aggs, spec)
		p.ops = append(p.ops, spec.op)
	}
	return nil
}

// InputSchema returns the schema of input i.
func (p *Plan) InputSchema(i int) *schema.Schema { return p.in[i] }

// OutputSchema returns the result schema.
func (p *Plan) OutputSchema() *schema.Schema { return p.out }

// Window returns the window definition of input i.
func (p *Plan) Window(i int) window.Def { return p.windows[i] }

// Fragments computes input i's window fragments for a batch of n tuples.
func (p *Plan) Fragments(dst []window.Fragment, i, n int, data []byte, ctx window.Context) []window.Fragment {
	view := newTSView(p.in[i], data)
	_ = n
	return p.windows[i].Fragments(dst, view.Len(), view, ctx)
}

// NumInputs returns 1 or 2.
func (p *Plan) NumInputs() int { return len(p.Q.Inputs) }

// RStream reports whether the plan emits per-window results (aggregations
// and joins) rather than a per-tuple transformed stream.
func (p *Plan) RStream() bool { return p.Kind != Map }

// NewResult fetches a pooled TaskResult.
func (p *Plan) NewResult() *TaskResult {
	r := p.resultPool.Get().(*TaskResult)
	r.Reset()
	return r
}

// ReleaseResult returns a TaskResult and any tables it references to the
// plan's pools.
func (p *Plan) ReleaseResult(r *TaskResult) {
	for i := range r.Partials {
		if t := r.Partials[i].Table; t != nil {
			p.releaseTable(t)
			r.Partials[i].Table = nil
		}
	}
	r.Reset()
	p.resultPool.Put(r)
}

func (p *Plan) newTable() *HashTable {
	t := p.tablePool.Get().(*HashTable)
	t.Reset()
	return t
}

func (p *Plan) releaseTable(t *HashTable) { p.tablePool.Put(t) }

func (p *Plan) getScratch() *scratch  { return p.scratchPool.Get().(*scratch) }
func (p *Plan) putScratch(s *scratch) { p.scratchPool.Put(s) }

// Process evaluates the batch operator function (paper §5.3) over one
// task's batches, appending results to res. The CPU workers run it, and
// so does the GPGPU pipeline's execute stage in internal/gpu, over its
// device buffers.
func (p *Plan) Process(in [2]Batch, res *TaskResult) error {
	switch p.Kind {
	case Map:
		p.processMap(in[0], res)
	case Aggregate:
		p.processAggregate(in[0], res)
	case Join:
		p.processJoin(in, res)
	case UDFOp:
		p.processUDF(in, res)
	}
	return nil
}

// writeOut appends the output tuple for the given input tuple(s).
func (p *Plan) writeOut(dst []byte, l, r []byte) []byte {
	if p.writers == nil {
		dst = append(dst, l...)
		return append(dst, r...)
	}
	base := len(dst)
	dst = append(dst, make([]byte, p.out.TupleSize())...)
	tuple := dst[base:]
	for _, w := range p.writers {
		if w.size > 0 {
			src := l
			if w.src == 1 {
				src = r
			}
			copy(tuple[w.outOff:w.outOff+w.size], src[w.srcOff:w.srcOff+w.size])
			continue
		}
		if w.prog.IsInt() {
			v := w.prog.EvalInt(l, r)
			switch w.outTyp {
			case schema.Int32:
				p.out.WriteInt32(tuple, w.outIdx, int32(v))
			case schema.Int64:
				p.out.WriteInt64(tuple, w.outIdx, v)
			default:
				p.out.WriteFloat(tuple, w.outIdx, float64(v))
			}
		} else {
			p.out.WriteFloat(tuple, w.outIdx, w.prog.EvalFloat(l, r))
		}
	}
	return dst
}

// filterSel batch-evaluates the WHERE predicate over a packed batch into
// the scratch selection vector. all=true (and a nil vector) means the
// plan has no filter and every row passes.
func (p *Plan) filterSel(sc *scratch, in Batch, tsz, n int) (sel []int32, all bool) {
	if p.filter == nil {
		return nil, true
	}
	sc.sel = p.filter.EvalBatch(&sc.vec, sc.sel, expr.BatchInput{L: in.Data, LStride: tsz, N: n})
	return sc.sel, false
}

// identitySel materialises the all-rows selection vector; the grouped
// aggregation paths use it so filtered and unfiltered batches share one
// code path.
func (sc *scratch) identitySel(n int) []int32 {
	if cap(sc.sel) < n {
		sc.sel = make([]int32, n)
	}
	sc.sel = sc.sel[:n]
	for i := range sc.sel {
		sc.sel[i] = int32(i)
	}
	return sc.sel
}

// writeOutBatch appends the output tuples for the selected rows of a
// packed batch: the compact half of select-then-compact. Identity
// projections become run-coalesced copies; forwarded columns are copied
// column-at-a-time with width-specialised loops; computed columns are
// batch-evaluated once into a scratch column and then stored.
func (p *Plan) writeOutBatch(dst, data []byte, tsz, n int, sel []int32, all bool, sc *scratch) []byte {
	rows := len(sel)
	if all {
		rows = n
	}
	if rows == 0 {
		return dst
	}
	if p.writers == nil {
		if all {
			return append(dst, data[:n*tsz]...)
		}
		// Copy runs of consecutive selected rows in one memmove each.
		for k := 0; k < len(sel); {
			run := k + 1
			for run < len(sel) && sel[run] == sel[run-1]+1 {
				run++
			}
			lo, hi := int(sel[k]), int(sel[run-1])+1
			dst = append(dst, data[lo*tsz:hi*tsz]...)
			k = run
		}
		return dst
	}

	osz := p.out.TupleSize()
	base := len(dst)
	dst = append(dst, make([]byte, rows*osz)...)
	out := dst[base:]
	in := expr.BatchInput{L: data, LStride: tsz, N: n}
	for _, w := range p.writers {
		switch {
		case w.size == 8:
			if all {
				so, oo := w.srcOff, w.outOff
				for r := 0; r < rows; r++ {
					binary.LittleEndian.PutUint64(out[oo:], binary.LittleEndian.Uint64(data[so:]))
					so += tsz
					oo += osz
				}
			} else {
				oo := w.outOff
				for _, i := range sel {
					binary.LittleEndian.PutUint64(out[oo:], binary.LittleEndian.Uint64(data[int(i)*tsz+w.srcOff:]))
					oo += osz
				}
			}
		case w.size == 4:
			if all {
				so, oo := w.srcOff, w.outOff
				for r := 0; r < rows; r++ {
					binary.LittleEndian.PutUint32(out[oo:], binary.LittleEndian.Uint32(data[so:]))
					so += tsz
					oo += osz
				}
			} else {
				oo := w.outOff
				for _, i := range sel {
					binary.LittleEndian.PutUint32(out[oo:], binary.LittleEndian.Uint32(data[int(i)*tsz+w.srcOff:]))
					oo += osz
				}
			}
		case w.prog.IsInt():
			// One batch evaluation per column, then a typed store pass
			// with the same conversions as the scalar writeOut; the output
			// type dispatch is hoisted out of the row loop.
			sc.icol = w.prog.EvalBatchInt(&sc.vec, sc.icol, in)
			icol := sc.icol
			oo := w.outOff
			for r := 0; r < rows; r++ {
				i := r
				if !all {
					i = int(sel[r])
				}
				v := icol[i]
				switch w.outTyp {
				case schema.Int32:
					binary.LittleEndian.PutUint32(out[oo:], uint32(int32(v)))
				case schema.Int64:
					binary.LittleEndian.PutUint64(out[oo:], uint64(v))
				case schema.Float32:
					binary.LittleEndian.PutUint32(out[oo:], math.Float32bits(float32(v)))
				default:
					binary.LittleEndian.PutUint64(out[oo:], math.Float64bits(float64(v)))
				}
				oo += osz
			}
		default:
			sc.fcol = w.prog.EvalBatchFloat(&sc.vec, sc.fcol, in)
			fcol := sc.fcol
			oo := w.outOff
			switch w.outTyp {
			case schema.Int32:
				for r := 0; r < rows; r++ {
					i := r
					if !all {
						i = int(sel[r])
					}
					binary.LittleEndian.PutUint32(out[oo:], uint32(int32(fcol[i])))
					oo += osz
				}
			case schema.Int64:
				for r := 0; r < rows; r++ {
					i := r
					if !all {
						i = int(sel[r])
					}
					binary.LittleEndian.PutUint64(out[oo:], uint64(int64(fcol[i])))
					oo += osz
				}
			case schema.Float32:
				for r := 0; r < rows; r++ {
					i := r
					if !all {
						i = int(sel[r])
					}
					binary.LittleEndian.PutUint32(out[oo:], math.Float32bits(float32(fcol[i])))
					oo += osz
				}
			default:
				for r := 0; r < rows; r++ {
					i := r
					if !all {
						i = int(sel[r])
					}
					binary.LittleEndian.PutUint64(out[oo:], math.Float64bits(fcol[i]))
					oo += osz
				}
			}
		}
	}
	return dst
}

// fieldAt returns input side's schema field index whose row offset is
// off, or -1.
func (p *Plan) fieldAt(side, off int) int {
	for j, o := range p.colOffs[side] {
		if int(o) == off {
			return j
		}
	}
	return -1
}

// ColumnsRead reports, per field of input i's schema, whether the
// compiled operators read that field: the filter, join predicate,
// forwarded and computed output columns, aggregate arguments and group
// keys. Identity projections copy whole rows and mark nothing. No
// engine code reads it; it remains only for benchmark/layers.go, its
// one user, whose replay of a retired column shred counts these fields.
func (p *Plan) ColumnsRead(input int) []bool {
	read := make([]bool, p.in[input].NumFields())
	if p.Kind == Map && p.writers == nil {
		return read
	}
	mark := func(side, off int) {
		if side == input {
			if f := p.fieldAt(side, off); f >= 0 {
				read[f] = true
			}
		}
	}
	if p.filter != nil {
		p.filter.ColRefs(mark)
	}
	if p.joinPred != nil {
		p.joinPred.ColRefs(mark)
	}
	for i := range p.writers {
		w := &p.writers[i]
		if w.size > 0 {
			if w.src == input {
				read[w.srcField] = true
			}
			continue
		}
		w.prog.ColRefs(mark)
	}
	for a := range p.aggs {
		if p.aggs[a].arg != nil {
			p.aggs[a].arg.ColRefs(mark)
		}
	}
	if input == 0 {
		// The grouped kernels read their keys from these (gatherKeys).
		for _, f := range p.groupIdx {
			read[f] = true
		}
	}
	return read
}

// growF64 returns a zero-extended float64 slice of length n, reusing
// buf's capacity and growing geometrically so the adaptive dispatcher's
// ϕ resizes don't reallocate scratch on every step up.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		buf = make([]float64, c)
	}
	return buf[:n]
}

// growI64 is growF64 for int64 scratch.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		buf = make([]int64, c)
	}
	return buf[:n]
}

// minInt64 is the MaxTS seed.
const minInt64 = math.MinInt64
