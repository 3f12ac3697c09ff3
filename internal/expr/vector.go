// Vectorized batch evaluation (the CPU analogue of the paper's batch-wide
// GPGPU kernels, §5.3/§5.4). Every compiled program also has one batch
// form that evaluates a whole strided tuple batch column-at-a-time, so the
// per-tuple cost of the closure-tree interpreter (an indirect call per AST
// node per tuple) stays off the batch operator hot path:
//
//   - Numbers are register programs. CompileNum lowers the expression to a
//     flat program over int64/float64 register columns; each op is one
//     tight loop over the batch, and the caller's column is the result
//     register, so a plain column load is a single pass.
//   - Predicates are selection vectors. CompilePred lowers the predicate
//     to a tree whose every node fills an ascending []int32 of passing
//     rows. A column⋈constant compare in the column's own domain is one
//     typed scan over the raw bytes; any other compare evaluates both
//     operands as register programs and meets them in one compare loop.
//     AND intersects, OR merge-unions and NOT complements the children's
//     vectors. A compare with no per-row operand (broadcast sides and
//     constants only) is decided once for the whole batch.
//
// The scalar closure evaluators remain the reference semantics: the batch
// layer mirrors their promotions (per-node int/float domains, truncating
// int conversions, division-by-zero yielding 0) exactly, and a numeric
// tree too deep for the register file falls back to them per tuple, so
// batch and scalar evaluation are bit-identical by construction and
// verified by the differential tests.
package expr

import (
	"encoding/binary"
	"math"

	"saber/internal/schema"
)

// BatchInput describes one batch of tuple rows for vectorized evaluation.
// L and R hold the packed bytes of the two input sides (R is nil for
// single-stream expressions). A stride of 0 broadcasts that side's single
// tuple to every row — the join inner pass pins one left tuple against a
// whole right fragment this way. N is the row count.
type BatchInput struct {
	L, R             []byte
	LStride, RStride int
	N                int
}

func (in BatchInput) side(s uint8) (data []byte, stride int) {
	if s == 0 {
		return in.L, in.LStride
	}
	return in.R, in.RStride
}

// row returns the scalar-evaluator view of row i.
func (in BatchInput) row(i int) (l, r []byte) {
	l, r = in.L, in.R
	if in.LStride > 0 {
		l = in.L[i*in.LStride:]
	}
	if in.RStride > 0 {
		r = in.R[i*in.RStride:]
	}
	return l, r
}

// VecScratch holds the reusable register columns and selection vectors
// that batch evaluation runs on. Callers keep one per worker-scratch and
// pass it to every EvalBatch* call; steady state allocates nothing. The
// zero value is ready. Not safe for concurrent use.
type VecScratch struct {
	ints   [][]int64
	floats [][]float64
	sels   [][]int32    // one selection vector per predicate-tree depth
	argI   [2][]int64   // compare operands of an int64-domain leaf
	argF   [2][]float64 // compare operands of a float64-domain leaf
}

// reg returns register i of bank with length n, growing the bank as needed.
func reg[T any](bank *[][]T, i, n int) []T {
	for len(*bank) <= i {
		*bank = append(*bank, nil)
	}
	(*bank)[i] = grow((*bank)[i], n)
	return (*bank)[i]
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// --- Numeric register programs ----------------------------------------------

type vecOpCode uint8

const (
	vLoadI32 vecOpCode = iota // ints[dst] = sign-extended int32 column
	vLoadI64                  // ints[dst] = int64 column
	vLoadF32                  // floats[dst] = float64(float32 column)
	vLoadF64                  // floats[dst] = float64 column
	vConstI                   // ints[dst] = ci
	vConstF                   // floats[dst] = cf
	vCastIF                   // floats[dst] = float64(ints[a])
	vNegI                     // ints[dst] = -ints[dst]
	vNegF                     // floats[dst] = -floats[dst]
	vArithI                   // ints[dst] = ints[a] op ints[b]
	vArithF                   // floats[dst] = floats[a] op floats[b]
)

type vecOp struct {
	code        vecOpCode
	dst, adr, b uint8
	side        uint8
	arith       ArithOp
	off         int32
	ci          int64
	cf          float64
}

// maxVecRegs bounds the register-stack depth per bank; deeper trees fall
// back to per-tuple scalar evaluation (never hit by the paper's queries).
const maxVecRegs = 16

// numBatchProg is a compiled numeric batch program; the result lands in
// ints[0] or floats[0] depending on isInt.
type numBatchProg struct {
	ops   []vecOp
	isInt bool
}

type vecBuilder struct {
	r   Resolver
	ops []vecOp
}

func (b *vecBuilder) emit(op vecOp) { b.ops = append(b.ops, op) }

// num lowers e so its value lands in ints[di] (returning isInt=true) or
// floats[df] (isInt=false). Registers above the frame are free.
func (b *vecBuilder) num(e Expr, di, df int) (isInt, ok bool) {
	if di+1 >= maxVecRegs || df+1 >= maxVecRegs {
		return false, false
	}
	switch v := e.(type) {
	case Column:
		side, field, s, err := b.r.Resolve(v)
		if err != nil {
			return false, false
		}
		op := vecOp{dst: uint8(di), side: uint8(side), off: int32(s.Offset(field))}
		switch s.Field(field).Type {
		case schema.Int32:
			op.code = vLoadI32
		case schema.Int64:
			op.code = vLoadI64
		case schema.Float32:
			op.code, op.dst = vLoadF32, uint8(df)
		case schema.Float64:
			op.code, op.dst = vLoadF64, uint8(df)
		default:
			return false, false
		}
		b.emit(op)
		return op.code == vLoadI32 || op.code == vLoadI64, true

	case IntConst:
		b.emit(vecOp{code: vConstI, dst: uint8(di), ci: int64(v)})
		return true, true

	case FloatConst:
		b.emit(vecOp{code: vConstF, dst: uint8(df), cf: float64(v)})
		return false, true

	case Neg:
		inInt, ok := b.num(v.E, di, df)
		if !ok {
			return false, false
		}
		if inInt {
			b.emit(vecOp{code: vNegI, dst: uint8(di)})
		} else {
			b.emit(vecOp{code: vNegF, dst: uint8(df)})
		}
		return inInt, true

	case Arith:
		lInt, ok := b.num(v.Left, di, df)
		if !ok {
			return false, false
		}
		rInt, ok := b.num(v.Right, di+1, df+1)
		if !ok {
			return false, false
		}
		if lInt && rInt {
			b.emit(vecOp{code: vArithI, arith: v.Op, dst: uint8(di), adr: uint8(di), b: uint8(di + 1)})
			return true, true
		}
		if v.Op == Mod {
			return false, false // float % is a compile error in the scalar path too
		}
		// Mirror the scalar promotion: int subtrees convert to float at
		// this node.
		if lInt {
			b.emit(vecOp{code: vCastIF, dst: uint8(df), adr: uint8(di)})
		}
		if rInt {
			b.emit(vecOp{code: vCastIF, dst: uint8(df + 1), adr: uint8(di + 1)})
		}
		b.emit(vecOp{code: vArithF, arith: v.Op, dst: uint8(df), adr: uint8(df), b: uint8(df + 1)})
		return false, true
	}
	return false, false
}

func compileNumBatch(e Expr, r Resolver) *numBatchProg {
	b := vecBuilder{r: r}
	isInt, ok := b.num(e, 0, 0)
	if !ok {
		return nil
	}
	return &numBatchProg{ops: b.ops, isInt: isInt}
}

var le = binary.LittleEndian

func runVec(ops []vecOp, vs *VecScratch, in BatchInput) {
	n := in.N
	for oi := range ops {
		op := &ops[oi]
		switch op.code {
		case vLoadI32:
			dst := reg(&vs.ints, int(op.dst), n)
			data, stride := in.side(op.side)
			o := int(op.off)
			if stride == 0 {
				v := int64(int32(le.Uint32(data[o:])))
				for i := range dst {
					dst[i] = v
				}
				continue
			}
			for i := 0; i < n; i++ {
				dst[i] = int64(int32(le.Uint32(data[o:])))
				o += stride
			}
		case vLoadI64:
			dst := reg(&vs.ints, int(op.dst), n)
			data, stride := in.side(op.side)
			o := int(op.off)
			if stride == 0 {
				v := int64(le.Uint64(data[o:]))
				for i := range dst {
					dst[i] = v
				}
				continue
			}
			for i := 0; i < n; i++ {
				dst[i] = int64(le.Uint64(data[o:]))
				o += stride
			}
		case vLoadF32:
			dst := reg(&vs.floats, int(op.dst), n)
			data, stride := in.side(op.side)
			o := int(op.off)
			if stride == 0 {
				v := float64(math.Float32frombits(le.Uint32(data[o:])))
				for i := range dst {
					dst[i] = v
				}
				continue
			}
			for i := 0; i < n; i++ {
				dst[i] = float64(math.Float32frombits(le.Uint32(data[o:])))
				o += stride
			}
		case vLoadF64:
			dst := reg(&vs.floats, int(op.dst), n)
			data, stride := in.side(op.side)
			o := int(op.off)
			if stride == 0 {
				v := math.Float64frombits(le.Uint64(data[o:]))
				for i := range dst {
					dst[i] = v
				}
				continue
			}
			for i := 0; i < n; i++ {
				dst[i] = math.Float64frombits(le.Uint64(data[o:]))
				o += stride
			}
		case vConstI:
			dst := reg(&vs.ints, int(op.dst), n)
			for i := range dst {
				dst[i] = op.ci
			}
		case vConstF:
			dst := reg(&vs.floats, int(op.dst), n)
			for i := range dst {
				dst[i] = op.cf
			}
		case vCastIF:
			src := reg(&vs.ints, int(op.adr), n)
			dst := reg(&vs.floats, int(op.dst), n)
			for i := range dst {
				dst[i] = float64(src[i])
			}
		case vNegI:
			dst := reg(&vs.ints, int(op.dst), n)
			for i := range dst {
				dst[i] = -dst[i]
			}
		case vNegF:
			dst := reg(&vs.floats, int(op.dst), n)
			for i := range dst {
				dst[i] = -dst[i]
			}
		case vArithI:
			a := reg(&vs.ints, int(op.adr), n)
			bb := reg(&vs.ints, int(op.b), n)
			dst := reg(&vs.ints, int(op.dst), n)
			switch op.arith {
			case Add:
				for i := range dst {
					dst[i] = a[i] + bb[i]
				}
			case Sub:
				for i := range dst {
					dst[i] = a[i] - bb[i]
				}
			case Mul:
				for i := range dst {
					dst[i] = a[i] * bb[i]
				}
			case Div:
				for i := range dst {
					if bb[i] == 0 {
						dst[i] = 0
					} else {
						dst[i] = a[i] / bb[i]
					}
				}
			case Mod:
				for i := range dst {
					if bb[i] == 0 {
						dst[i] = 0
					} else {
						dst[i] = a[i] % bb[i]
					}
				}
			}
		case vArithF:
			a := reg(&vs.floats, int(op.adr), n)
			bb := reg(&vs.floats, int(op.b), n)
			dst := reg(&vs.floats, int(op.dst), n)
			switch op.arith {
			case Add:
				for i := range dst {
					dst[i] = a[i] + bb[i]
				}
			case Sub:
				for i := range dst {
					dst[i] = a[i] - bb[i]
				}
			case Mul:
				for i := range dst {
					dst[i] = a[i] * bb[i]
				}
			case Div:
				for i := range dst {
					dst[i] = a[i] / bb[i]
				}
			}
		}
	}
}

// runInto runs ops with res standing in for result register 0 of bank, so
// a program in the caller's domain writes straight into the caller's
// column.
func runInto[T int64 | float64](bank *[][]T, res []T, ops []vecOp, vs *VecScratch, in BatchInput) {
	saved := reg(bank, 0, 0)
	(*bank)[0] = res
	runVec(ops, vs, in)
	(*bank)[0] = saved
}

// EvalBatchFloat evaluates the expression for every row into dst (grown
// to N), with float64 semantics identical to per-row EvalFloat.
func (p *NumProgram) EvalBatchFloat(vs *VecScratch, dst []float64, in BatchInput) []float64 {
	dst = grow(dst, in.N)
	switch {
	case in.N == 0:
	case p.batch == nil:
		for i := range dst {
			dst[i] = p.EvalFloat(in.row(i))
		}
	case p.batch.isInt:
		runVec(p.batch.ops, vs, in)
		for i, v := range vs.ints[0][:in.N] {
			dst[i] = float64(v)
		}
	default:
		runInto(&vs.floats, dst, p.batch.ops, vs, in)
	}
	return dst
}

// EvalBatchInt evaluates the expression for every row into dst (grown to
// N), with integer semantics identical to per-row EvalInt.
func (p *NumProgram) EvalBatchInt(vs *VecScratch, dst []int64, in BatchInput) []int64 {
	dst = grow(dst, in.N)
	switch {
	case in.N == 0:
	case p.batch == nil:
		for i := range dst {
			dst[i] = p.EvalInt(in.row(i))
		}
	case p.batch.isInt:
		runInto(&vs.ints, dst, p.batch.ops, vs, in)
	default:
		runVec(p.batch.ops, vs, in)
		for i, v := range vs.floats[0][:in.N] {
			dst[i] = int64(v)
		}
	}
	return dst
}

// --- Predicate selection-vector trees ---------------------------------------

type selKind uint8

const (
	selCol selKind = iota // column⋈constant in the column's domain: a typed scan
	selNum                // any other compare: operand columns, one compare loop
	selAnd                // intersect the children's vectors
	selOr                 // merge-union the children's vectors
	selNot                // complement the child's vector
)

// selNode is one node of a predicate's batch form.
type selNode struct {
	kind selKind
	kids []selNode

	// Leaves.
	fn    func(l, r []byte) bool // verdict of a batch with no per-row operand
	sides uint8                  // bit s set when the compare reads side s
	col   leafCmp                // selCol
	l, r  *NumProgram            // selNum operands
	isInt bool                   // selNum compares in the int64 domain
	cmp   CmpOp                  // selNum
}

// leafCmp is a column⋈constant compare in the column's own domain: an
// integer constant against an integer column, or any constant (converted
// to float64 as the scalar path does) against a float column.
type leafCmp struct {
	side uint8
	typ  schema.Type
	op   CmpOp
	off  int
	ci   int64
	cf   float64
}

// compileSel lowers p to its selection-vector tree. The caller has
// compiled p's scalar form already, so every compare below compiles.
func compileSel(p Pred, r Resolver) selNode {
	var nd selNode
	var kids []Pred
	switch v := p.(type) {
	case Cmp:
		return compileLeaf(v, r)
	case And:
		nd.kind, kids = selAnd, v.Preds
	case Or:
		nd.kind, kids = selOr, v.Preds
	case Not:
		nd.kind, kids = selNot, []Pred{v.P}
	}
	nd.kids = make([]selNode, len(kids))
	for i, q := range kids {
		nd.kids[i] = compileSel(q, r)
	}
	return nd
}

// compileLeaf lowers one compare. Its errors are dropped because the
// scalar compile of the enclosing predicate has already succeeded.
func compileLeaf(c Cmp, r Resolver) selNode {
	fn, _ := compilePred(c, r)
	nd := selNode{fn: fn, cmp: c.Op}
	for _, col := range PredColumns(c, nil) {
		side, _, _, _ := r.Resolve(col)
		nd.sides |= 1 << side
	}
	if lf, ok := leafFromCmp(c, r); ok {
		nd.kind, nd.col = selCol, lf
		return nd
	}
	nd.kind = selNum
	nd.l, _ = CompileNum(c.Left, r)
	nd.r, _ = CompileNum(c.Right, r)
	nd.isInt = nd.l.IsInt() && nd.r.IsInt()
	return nd
}

func flipCmp(op CmpOp) CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op // Eq, Ne are symmetric
}

// leafFromCmp matches a column⋈constant compare (either operand order)
// that compares in the column's own domain.
func leafFromCmp(c Cmp, r Resolver) (leafCmp, bool) {
	col, colOK := c.Left.(Column)
	cst := c.Right
	op := c.Op
	if !colOK {
		// Constant on the left: flip into column-first form.
		if col, colOK = c.Right.(Column); !colOK {
			return leafCmp{}, false
		}
		cst = c.Left
		op = flipCmp(op)
	}
	side, field, s, err := r.Resolve(col)
	if err != nil {
		return leafCmp{}, false
	}
	typ := s.Field(field).Type
	lf := leafCmp{side: uint8(side), typ: typ, op: op, off: s.Offset(field)}
	colInt := typ == schema.Int32 || typ == schema.Int64
	switch k := cst.(type) {
	case IntConst:
		if colInt {
			lf.ci = int64(k)
		} else {
			lf.cf = float64(int64(k))
		}
	case FloatConst:
		if colInt {
			return leafCmp{}, false // mixed domain: a selNum leaf
		}
		lf.cf = float64(k)
	default:
		return leafCmp{}, false
	}
	return lf, true
}

// eval fills dst[:0] with the ascending indices of the rows passing the
// node and returns it. Selection buffers d and deeper are free for the
// node's use; each has capacity for N rows, so filling one never
// reallocates.
func (nd *selNode) eval(vs *VecScratch, dst []int32, in BatchInput, d int) []int32 {
	n := in.N
	dst = dst[:0]
	switch nd.kind {
	case selAnd:
		if len(nd.kids) == 0 {
			return appendAll(dst, n)
		}
		dst = nd.kids[0].eval(vs, dst, in, d+1)
		for k := 1; k < len(nd.kids) && len(dst) > 0; k++ {
			dst = intersectSel(dst, nd.kids[k].eval(vs, reg(&vs.sels, d, n), in, d+1))
		}
		return dst
	case selOr:
		if len(nd.kids) == 0 {
			return dst
		}
		dst = nd.kids[0].eval(vs, dst, in, d+2)
		for k := 1; k < len(nd.kids) && len(dst) < n; k++ {
			b := nd.kids[k].eval(vs, reg(&vs.sels, d, n), in, d+2)
			dst = append(dst[:0], unionSel(reg(&vs.sels, d+1, n)[:0], dst, b)...)
		}
		return dst
	case selNot:
		return complementSel(dst, nd.kids[0].eval(vs, reg(&vs.sels, d, n), in, d+1), n)
	}
	if (nd.sides&1 == 0 || in.LStride == 0) && (nd.sides&2 == 0 || in.RStride == 0) {
		// No per-row operand (broadcast sides and constants only): one
		// verdict decides the whole batch.
		if nd.fn(in.row(0)) {
			return appendAll(dst, n)
		}
		return dst
	}
	if nd.kind == selCol {
		lf := &nd.col
		data, stride := in.side(lf.side)
		off := lf.off
		switch lf.typ {
		case schema.Int32:
			return selI32(dst, data, off, stride, n, lf.op, lf.ci)
		case schema.Int64:
			return selI64(dst, data, off, stride, n, lf.op, lf.ci)
		case schema.Float32:
			return selF32(dst, data, off, stride, n, lf.op, lf.cf)
		}
		return selF64(dst, data, off, stride, n, lf.op, lf.cf)
	}
	if nd.isInt {
		vs.argI[0] = nd.l.EvalBatchInt(vs, vs.argI[0], in)
		vs.argI[1] = nd.r.EvalBatchInt(vs, vs.argI[1], in)
		return cmpSel(dst, vs.argI[0], vs.argI[1], nd.cmp)
	}
	vs.argF[0] = nd.l.EvalBatchFloat(vs, vs.argF[0], in)
	vs.argF[1] = nd.r.EvalBatchFloat(vs, vs.argF[1], in)
	return cmpSel(dst, vs.argF[0], vs.argF[1], nd.cmp)
}

func appendAll(sel []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// intersectSel compacts a in place to the values also present in b; both
// inputs are ascending, as every node produces them.
func intersectSel(a, b []int32) []int32 {
	w, j := 0, 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == v {
			a[w] = v
			w++
			j++
		}
	}
	return a[:w]
}

// unionSel appends the ascending union of the ascending a and b to dst.
func unionSel(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// complementSel appends to dst the rows of [0, n) missing from the
// ascending s.
func complementSel(dst, s []int32, n int) []int32 {
	j := 0
	for i := int32(0); i < int32(n); i++ {
		if j < len(s) && s[j] == i {
			j++
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// cmpSel appends the rows where a[i] op b[i] holds: the compare loop of a
// selNum leaf, in the domain its operands were evaluated in.
func cmpSel[T int64 | float64](sel []int32, a, b []T, op CmpOp) []int32 {
	b = b[:len(a)]
	switch op {
	case Eq:
		for i := range a {
			if a[i] == b[i] {
				sel = append(sel, int32(i))
			}
		}
	case Ne:
		for i := range a {
			if a[i] != b[i] {
				sel = append(sel, int32(i))
			}
		}
	case Lt:
		for i := range a {
			if a[i] < b[i] {
				sel = append(sel, int32(i))
			}
		}
	case Le:
		for i := range a {
			if a[i] <= b[i] {
				sel = append(sel, int32(i))
			}
		}
	case Gt:
		for i := range a {
			if a[i] > b[i] {
				sel = append(sel, int32(i))
			}
		}
	case Ge:
		for i := range a {
			if a[i] >= b[i] {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// The column⋈constant compare is the dominant leaf (paper Table 1's
// SELECT/GSELECT and every application filter), so each (type, op) pair
// gets a dedicated loop over the raw bytes.

func selI32(sel []int32, data []byte, off, stride, n int, op CmpOp, c int64) []int32 {
	o := off
	switch op {
	case Eq:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) == c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ne:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) != c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Lt:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) < c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Le:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) <= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Gt:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) > c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ge:
		for i := 0; i < n; i++ {
			if int64(int32(le.Uint32(data[o:]))) >= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	}
	return sel
}

func selI64(sel []int32, data []byte, off, stride, n int, op CmpOp, c int64) []int32 {
	o := off
	switch op {
	case Eq:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) == c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ne:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) != c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Lt:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) < c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Le:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) <= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Gt:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) > c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ge:
		for i := 0; i < n; i++ {
			if int64(le.Uint64(data[o:])) >= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	}
	return sel
}

func selF32(sel []int32, data []byte, off, stride, n int, op CmpOp, c float64) []int32 {
	o := off
	switch op {
	case Eq:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) == c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ne:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) != c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Lt:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) < c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Le:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) <= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Gt:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) > c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ge:
		for i := 0; i < n; i++ {
			if float64(math.Float32frombits(le.Uint32(data[o:]))) >= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	}
	return sel
}

func selF64(sel []int32, data []byte, off, stride, n int, op CmpOp, c float64) []int32 {
	o := off
	switch op {
	case Eq:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) == c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ne:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) != c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Lt:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) < c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Le:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) <= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Gt:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) > c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	case Ge:
		for i := 0; i < n; i++ {
			if math.Float64frombits(le.Uint64(data[o:])) >= c {
				sel = append(sel, int32(i))
			}
			o += stride
		}
	}
	return sel
}

// EvalBatch evaluates the predicate over every row of the batch and
// appends the indices of passing rows to sel[:0], returning the filled
// selection vector. Results are bit-identical to calling Eval per row.
func (p *PredProgram) EvalBatch(vs *VecScratch, sel []int32, in BatchInput) []int32 {
	if in.N == 0 {
		return sel[:0]
	}
	return p.root.eval(vs, sel, in, 0)
}

// --- Field references --------------------------------------------------

// ColRefs visits every (side, row-byte-offset) field that batch
// evaluation loads. exec.Plan.ColumnsRead is its only caller.
func (p *PredProgram) ColRefs(visit func(side, off int)) { p.root.loads(visit) }

// ColRefs is the numeric-program analogue of PredProgram.ColRefs. A
// program with no batch form visits nothing.
func (p *NumProgram) ColRefs(visit func(side, off int)) {
	if p.batch == nil {
		return
	}
	for i := range p.batch.ops {
		switch op := &p.batch.ops[i]; op.code {
		case vLoadI32, vLoadI64, vLoadF32, vLoadF64:
			visit(int(op.side), int(op.off))
		}
	}
}

func (nd *selNode) loads(visit func(side, off int)) {
	switch nd.kind {
	case selCol:
		visit(int(nd.col.side), nd.col.off)
	case selNum:
		nd.l.ColRefs(visit)
		nd.r.ColRefs(visit)
	}
	for i := range nd.kids {
		nd.kids[i].loads(visit)
	}
}
