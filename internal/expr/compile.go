package expr

import (
	"fmt"

	"saber/internal/schema"
)

// NumProgram is a compiled numeric expression. Evaluation takes the raw
// tuple bytes of each input side (pass nil for unused sides). Per-tuple
// evaluation runs the closure tree; EvalBatchFloat/EvalBatchInt run the
// register program (vector.go), or the closure tree per row for a tree too
// deep for the register file.
type NumProgram struct {
	typ   schema.Type
	fi    func(l, r []byte) int64
	ff    func(l, r []byte) float64
	batch *numBatchProg
}

// Type returns the static result type of the expression (Int32, Int64,
// Float32 or Float64 after the usual numeric promotions).
func (p *NumProgram) Type() schema.Type { return p.typ }

// IsInt reports whether the expression has integer semantics.
func (p *NumProgram) IsInt() bool { return p.typ == schema.Int32 || p.typ == schema.Int64 }

// EvalInt evaluates with integer semantics; float results are truncated.
func (p *NumProgram) EvalInt(l, r []byte) int64 {
	if p.fi != nil {
		return p.fi(l, r)
	}
	return int64(p.ff(l, r))
}

// EvalFloat evaluates to float64.
func (p *NumProgram) EvalFloat(l, r []byte) float64 {
	if p.ff != nil {
		return p.ff(l, r)
	}
	return float64(p.fi(l, r))
}

// PredProgram is a compiled boolean predicate. Per-tuple evaluation runs
// the closure tree; EvalBatch runs its selection-vector tree (vector.go).
type PredProgram struct {
	fn   func(l, r []byte) bool
	root selNode
}

// Eval evaluates the predicate over the input tuples.
func (p *PredProgram) Eval(l, r []byte) bool { return p.fn(l, r) }

// EvalTuple evaluates a single-stream predicate.
func (p *PredProgram) EvalTuple(t []byte) bool { return p.fn(t, nil) }

// CompileNum compiles a numeric expression with the given resolver.
func CompileNum(e Expr, r Resolver) (*NumProgram, error) {
	p, err := compileNum(e, r)
	if err != nil {
		return nil, err
	}
	p.batch = compileNumBatch(e, r)
	return p, nil
}

// CompilePred compiles a predicate with the given resolver.
func CompilePred(p Pred, r Resolver) (*PredProgram, error) {
	fn, err := compilePred(p, r)
	if err != nil {
		return nil, err
	}
	return &PredProgram{fn: fn, root: compileSel(p, r)}, nil
}

func compileNum(e Expr, r Resolver) (*NumProgram, error) {
	switch v := e.(type) {
	case Column:
		side, field, s, err := r.Resolve(v)
		if err != nil {
			return nil, err
		}
		typ := s.Field(field).Type
		pick := func(l, r []byte) []byte {
			if side == 0 {
				return l
			}
			return r
		}
		p := &NumProgram{typ: typ}
		switch typ {
		case schema.Int32:
			p.fi = func(l, r []byte) int64 { return int64(s.ReadInt32(pick(l, r), field)) }
		case schema.Int64:
			p.fi = func(l, r []byte) int64 { return s.ReadInt64(pick(l, r), field) }
		case schema.Float32:
			p.ff = func(l, r []byte) float64 { return float64(s.ReadFloat32(pick(l, r), field)) }
		case schema.Float64:
			p.ff = func(l, r []byte) float64 { return s.ReadFloat64(pick(l, r), field) }
		}
		return p, nil

	case IntConst:
		c := int64(v)
		return &NumProgram{typ: schema.Int64, fi: func(l, r []byte) int64 { return c }}, nil

	case FloatConst:
		c := float64(v)
		return &NumProgram{typ: schema.Float64, ff: func(l, r []byte) float64 { return c }}, nil

	case Neg:
		in, err := compileNum(v.E, r)
		if err != nil {
			return nil, err
		}
		p := &NumProgram{typ: in.typ}
		if in.IsInt() {
			f := in.fi
			p.fi = func(l, r []byte) int64 { return -f(l, r) }
		} else {
			f := in.ff
			p.ff = func(l, r []byte) float64 { return -f(l, r) }
		}
		return p, nil

	case Arith:
		lp, err := compileNum(v.Left, r)
		if err != nil {
			return nil, err
		}
		rp, err := compileNum(v.Right, r)
		if err != nil {
			return nil, err
		}
		typ := Promote(lp.typ, rp.typ)
		p := &NumProgram{typ: typ}
		if p.IsInt() {
			lf, rf := intFn(lp), intFn(rp)
			switch v.Op {
			case Add:
				p.fi = func(l, r []byte) int64 { return lf(l, r) + rf(l, r) }
			case Sub:
				p.fi = func(l, r []byte) int64 { return lf(l, r) - rf(l, r) }
			case Mul:
				p.fi = func(l, r []byte) int64 { return lf(l, r) * rf(l, r) }
			case Div:
				p.fi = func(l, r []byte) int64 {
					d := rf(l, r)
					if d == 0 {
						return 0
					}
					return lf(l, r) / d
				}
			case Mod:
				p.fi = func(l, r []byte) int64 {
					d := rf(l, r)
					if d == 0 {
						return 0
					}
					return lf(l, r) % d
				}
			default:
				return nil, fmt.Errorf("expr: unknown arithmetic op %d", v.Op)
			}
		} else {
			lf, rf := floatFn(lp), floatFn(rp)
			switch v.Op {
			case Add:
				p.ff = func(l, r []byte) float64 { return lf(l, r) + rf(l, r) }
			case Sub:
				p.ff = func(l, r []byte) float64 { return lf(l, r) - rf(l, r) }
			case Mul:
				p.ff = func(l, r []byte) float64 { return lf(l, r) * rf(l, r) }
			case Div:
				p.ff = func(l, r []byte) float64 { return lf(l, r) / rf(l, r) }
			case Mod:
				return nil, fmt.Errorf("expr: %% requires integer operands")
			default:
				return nil, fmt.Errorf("expr: unknown arithmetic op %d", v.Op)
			}
		}
		return p, nil
	}
	return nil, fmt.Errorf("expr: unsupported expression %T", e)
}

// Promote returns the result type of combining two numeric types, following
// the usual promotions: float64 > float32 > int64 > int32.
func Promote(a, b schema.Type) schema.Type {
	rank := func(t schema.Type) int {
		switch t {
		case schema.Int32:
			return 0
		case schema.Int64:
			return 1
		case schema.Float32:
			return 2
		default:
			return 3
		}
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

func intFn(p *NumProgram) func(l, r []byte) int64 {
	if p.fi != nil {
		return p.fi
	}
	f := p.ff
	return func(l, r []byte) int64 { return int64(f(l, r)) }
}

func floatFn(p *NumProgram) func(l, r []byte) float64 {
	if p.ff != nil {
		return p.ff
	}
	f := p.fi
	return func(l, r []byte) float64 { return float64(f(l, r)) }
}

func compilePred(p Pred, r Resolver) (func(l, rt []byte) bool, error) {
	switch v := p.(type) {
	case Cmp:
		lp, err := compileNum(v.Left, r)
		if err != nil {
			return nil, err
		}
		rp, err := compileNum(v.Right, r)
		if err != nil {
			return nil, err
		}
		if lp.IsInt() && rp.IsInt() {
			lf, rf := intFn(lp), intFn(rp)
			switch v.Op {
			case Eq:
				return func(l, r []byte) bool { return lf(l, r) == rf(l, r) }, nil
			case Ne:
				return func(l, r []byte) bool { return lf(l, r) != rf(l, r) }, nil
			case Lt:
				return func(l, r []byte) bool { return lf(l, r) < rf(l, r) }, nil
			case Le:
				return func(l, r []byte) bool { return lf(l, r) <= rf(l, r) }, nil
			case Gt:
				return func(l, r []byte) bool { return lf(l, r) > rf(l, r) }, nil
			case Ge:
				return func(l, r []byte) bool { return lf(l, r) >= rf(l, r) }, nil
			}
		}
		lf, rf := floatFn(lp), floatFn(rp)
		switch v.Op {
		case Eq:
			return func(l, r []byte) bool { return lf(l, r) == rf(l, r) }, nil
		case Ne:
			return func(l, r []byte) bool { return lf(l, r) != rf(l, r) }, nil
		case Lt:
			return func(l, r []byte) bool { return lf(l, r) < rf(l, r) }, nil
		case Le:
			return func(l, r []byte) bool { return lf(l, r) <= rf(l, r) }, nil
		case Gt:
			return func(l, r []byte) bool { return lf(l, r) > rf(l, r) }, nil
		case Ge:
			return func(l, r []byte) bool { return lf(l, r) >= rf(l, r) }, nil
		}
		return nil, fmt.Errorf("expr: unknown comparison op %d", v.Op)

	case And:
		fns := make([]func(l, r []byte) bool, len(v.Preds))
		for i, q := range v.Preds {
			fn, err := compilePred(q, r)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		return func(l, r []byte) bool {
			for _, fn := range fns {
				if !fn(l, r) {
					return false
				}
			}
			return true
		}, nil

	case Or:
		fns := make([]func(l, r []byte) bool, len(v.Preds))
		for i, q := range v.Preds {
			fn, err := compilePred(q, r)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		return func(l, r []byte) bool {
			for _, fn := range fns {
				if fn(l, r) {
					return true
				}
			}
			return false
		}, nil

	case Not:
		fn, err := compilePred(v.P, r)
		if err != nil {
			return nil, err
		}
		return func(l, r []byte) bool { return !fn(l, r) }, nil
	}
	return nil, fmt.Errorf("expr: unsupported predicate %T", p)
}
