package bql

import (
	"strconv"
	"strings"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

type selectItem struct {
	isStar bool
	agg    *query.Aggregate
	proj   *query.ProjectionItem
}

// parseSelect parses a SELECT, from its keyword to the end of the input
// (in a script: to the statement's ';' or INTO), into a query named name
// whose inputs are not yet bound to schemas.
func (p *parser) parseSelect(name string) (*Select, error) {
	t, err := p.expect(tokKeyword, "select")
	if err != nil {
		return nil, err
	}
	q := &query.Query{Name: name}
	sel := &Select{Pos: t.pos, Query: q}
	q.Distinct = p.accept(tokKeyword, "distinct")

	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}

	if _, err := p.expect(tokKeyword, "from"); err != nil {
		return nil, err
	}
	for {
		in, pos, err := p.parseSource()
		if err != nil {
			return nil, err
		}
		q.Inputs = append(q.Inputs, in)
		sel.From = append(sel.From, pos)
		if !p.accept(tokPunct, ",") {
			break
		}
	}

	var where expr.Pred
	if p.accept(tokKeyword, "where") {
		where, err = p.parsePred()
		if err != nil {
			return nil, err
		}
	}
	// For two-input queries the WHERE clause is the θ-join predicate, as in
	// the paper's SG3 listing.
	if len(q.Inputs) == 2 {
		q.JoinPred = where
	} else {
		q.Where = where
	}

	if p.accept(tokKeyword, "group") {
		if _, err := p.expect(tokKeyword, "by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "having") {
		q.Having, err = p.parsePred()
		if err != nil {
			return nil, err
		}
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}

	// Distribute select items. Aggregation queries list timestamp and the
	// group columns alongside the aggregates (Appendix A shape); those are
	// implied by the canonical aggregation output schema, so plain-column
	// items that match group columns (or timestamp) are dropped. Any other
	// item left beside an aggregate is rejected by Select.compile.
	for _, it := range items {
		switch {
		case it.isStar:
			// select *: empty projection means all columns.
		case it.agg != nil:
			q.Aggregates = append(q.Aggregates, *it.agg)
		default:
			q.Projection = append(q.Projection, *it.proj)
		}
	}
	if len(q.Aggregates) > 0 {
		kept := q.Projection[:0]
		for _, item := range q.Projection {
			c, ok := item.Expr.(expr.Column)
			if ok && (c.Name == "timestamp" || q.HasGroupColumn(c.Name)) {
				continue
			}
			kept = append(kept, item)
		}
		q.Projection = kept
	}
	return sel, nil
}

func (p *parser) parseSelectList() ([]selectItem, error) {
	var items []selectItem
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	return items, nil
}

var aggFuncs = map[string]query.AggFunc{
	"count": query.Count, "sum": query.Sum, "avg": query.Avg,
	"min": query.Min, "max": query.Max,
}

// parseAlias parses an optional AS <identifier>.
func (p *parser) parseAlias() (string, error) {
	if !p.accept(tokKeyword, "as") {
		return "", nil
	}
	t, err := p.expectIdent("an identifier")
	return t.text, err
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.accept(tokPunct, "*") {
		return selectItem{isStar: true}, nil
	}
	if f, isAgg := aggFuncs[p.cur().text]; isAgg && p.at(tokKeyword, "") {
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return selectItem{}, err
		}
		var arg expr.Expr
		if !p.accept(tokPunct, "*") {
			var err error
			arg, err = p.parseExpr()
			if err != nil {
				return selectItem{}, err
			}
		} else if f != query.Count {
			return selectItem{}, p.errf("%s(*) is only valid for count", f)
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return selectItem{}, err
		}
		agg := query.Aggregate{Func: f, Arg: arg}
		var err error
		agg.As, err = p.parseAlias()
		return selectItem{agg: &agg}, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := query.ProjectionItem{Expr: e}
	item.As, err = p.parseAlias()
	return selectItem{proj: &item}, err
}

// parseSource parses one FROM entry and returns it with the byte offset
// of its stream name.
func (p *parser) parseSource() (query.Input, int, error) {
	name, err := p.expectIdent("an identifier")
	if err != nil {
		return query.Input{}, 0, err
	}
	if _, err := p.expect(tokPunct, "["); err != nil {
		return query.Input{}, 0, err
	}
	w, err := p.parseWindowSpec()
	if err != nil {
		return query.Input{}, 0, err
	}
	if _, err := p.expect(tokPunct, "]"); err != nil {
		return query.Input{}, 0, err
	}
	in := query.Input{Name: name.text, Window: w}
	in.Alias, err = p.parseAlias()
	return in, name.pos, err
}

func (p *parser) parseWindowSpec() (window.Def, error) {
	switch {
	case p.accept(tokKeyword, "range"):
		if p.accept(tokKeyword, "unbounded") {
			return window.NewUnbounded(), nil
		}
		size, slide, err := p.parseSizeSlide()
		return window.NewTime(size, slide), err
	case p.accept(tokKeyword, "rows"):
		size, slide, err := p.parseSizeSlide()
		return window.NewCount(size, slide), err
	case p.at(tokKeyword, "partition"):
		return window.Def{}, p.errf("partition windows are not supported by the CQL front end; use the builder API with a UDF operator")
	default:
		return window.Def{}, p.errf("expected window specification, found %s", describe(p.cur()))
	}
}

// parseSizeSlide parses <size> [SLIDE <slide>]; without a slide the window
// tumbles.
func (p *parser) parseSizeSlide() (size, slide int64, err error) {
	if size, err = p.parseInt(); err != nil {
		return 0, 0, err
	}
	if !p.accept(tokKeyword, "slide") {
		return size, size, nil
	}
	slide, err = p.parseInt()
	return size, slide, err
}

func (p *parser) parseInt() (int64, error) {
	if !p.at(tokNumber, "") {
		return 0, p.errf("expected a number, found %s", describe(p.cur()))
	}
	t := p.next()
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("invalid integer %q", t.text)
	}
	return v, nil
}

func (p *parser) parseColumnRef() (expr.Column, error) {
	t, err := p.expectIdent("an identifier")
	if err != nil {
		return expr.Column{}, err
	}
	if p.accept(tokPunct, ".") {
		f, err := p.expectIdent("an identifier")
		if err != nil {
			return expr.Column{}, err
		}
		return expr.QCol(t.text, f.text), nil
	}
	return expr.Col(t.text), nil
}

// --- Predicates -------------------------------------------------------------

func (p *parser) parsePred() (expr.Pred, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (expr.Pred, error) {
	preds, err := p.parseJoined("or", p.parseAnd)
	if err != nil {
		return nil, err
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return expr.Or{Preds: preds}, nil
}

func (p *parser) parseAnd() (expr.Pred, error) {
	preds, err := p.parseJoined("and", p.parseNot)
	if err != nil {
		return nil, err
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return expr.And{Preds: preds}, nil
}

// parseJoined parses one or more operands separated by the keyword op.
func (p *parser) parseJoined(op string, operand func() (expr.Pred, error)) ([]expr.Pred, error) {
	var preds []expr.Pred
	for {
		pr, err := operand()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if !p.accept(tokKeyword, op) {
			return preds, nil
		}
	}
}

func (p *parser) parseNot() (expr.Pred, error) {
	if p.accept(tokKeyword, "not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	// A '(' may open a parenthesised predicate or a parenthesised
	// arithmetic expression inside a comparison; try the predicate reading
	// first and backtrack.
	if p.at(tokPunct, "(") {
		save := p.i
		p.next()
		if inner, err := p.parsePred(); err == nil {
			if p.accept(tokPunct, ")") && !p.atCmpOp() && !p.atArithOp() {
				return inner, nil
			}
		}
		p.i = save
	}
	return p.parseCmp()
}

var cmpOps = map[string]expr.CmpOp{
	"==": expr.Eq, "=": expr.Eq, "!=": expr.Ne,
	"<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge,
}

func (p *parser) atCmpOp() bool {
	_, ok := cmpOps[p.cur().text]
	return ok && p.at(tokPunct, "")
}

func (p *parser) atArithOp() bool {
	return p.at(tokPunct, "") && strings.Contains("+-*/%", p.cur().text)
}

func (p *parser) parseCmp() (expr.Pred, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atCmpOp() {
		return nil, p.errf("expected comparison operator, found %s", describe(p.cur()))
	}
	op := cmpOps[p.next().text]
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, Left: left, Right: right}, nil
}

// --- Arithmetic expressions --------------------------------------------------

var (
	addOps = map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub}
	mulOps = map[string]expr.ArithOp{"*": expr.Mul, "/": expr.Div, "%": expr.Mod}
)

func (p *parser) parseExpr() (expr.Expr, error) {
	return p.parseArith(addOps, p.parseTerm)
}

func (p *parser) parseTerm() (expr.Expr, error) {
	return p.parseArith(mulOps, p.parseFactor)
}

// parseArith parses a left-associative chain of operands joined by the
// punctuation operators in ops.
func (p *parser) parseArith(ops map[string]expr.ArithOp, operand func() (expr.Expr, error)) (expr.Expr, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := ops[p.cur().text]
		if !ok || !p.at(tokPunct, "") {
			return left, nil
		}
		p.next()
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseFactor() (expr.Expr, error) {
	switch {
	case p.accept(tokPunct, "-"):
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return expr.Neg{E: inner}, nil
	case p.accept(tokPunct, "("):
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.at(tokNumber, ""):
		t := p.next()
		if strings.Contains(t.text, ".") {
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.text)
			}
			return expr.FloatConst(v), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return expr.IntConst(v), nil
	case p.at(tokIdent, ""):
		return p.parseColumnRef()
	default:
		return nil, p.errf("expected expression, found %s", describe(p.cur()))
	}
}
