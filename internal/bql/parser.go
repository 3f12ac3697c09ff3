package bql

import (
	"strconv"
	"strings"
	"unicode"

	"saber/internal/query"
)

// Reserved words of the two grammars. A word is a keyword only where the
// rules reading it reserve it; everywhere else it is an identifier.
var (
	stmtKeywords = map[string]bool{
		"create": true, "drop": true, "pause": true, "resume": true,
		"stream": true, "source": true, "sink": true,
		"type": true, "with": true, "as": true, "into": true,
		"istream": true, "dstream": true, "rstream": true,
		"select": true,
	}
	selectKeywords = map[string]bool{
		"select": true, "distinct": true, "from": true, "where": true,
		"group": true, "by": true, "having": true, "as": true,
		"and": true, "or": true, "not": true,
		"range": true, "rows": true, "slide": true, "unbounded": true,
		"partition": true,
		"sum":       true, "avg": true, "count": true, "min": true, "max": true,
	}
)

// Parse lexes and parses a script into statements. It needs no schemas:
// AnalyzeStream binds each SELECT's streams.
func Parse(src string) (*Script, error) {
	toks, err := lex(src, true)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, script: true}
	sc := &Script{Src: src}
	for !p.at(tokEOF, "") {
		// Tolerate stray semicolons between statements.
		if p.accept(tokPunct, ";") {
			continue
		}
		start := p.cur().pos
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		*st.span() = Span{Pos: start, End: p.lastEnd}
		sc.Stmts = append(sc.Stmts, st)
	}
	return sc, nil
}

// ParseQuery parses a bare SELECT named name, binds its FROM streams and
// validates it.
func ParseQuery(name, src string, streams Streams) (*query.Query, error) {
	toks, err := lex(src, false)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, inSelect: true}
	sel, err := p.parseSelect(name)
	if err != nil {
		return nil, err
	}
	return sel.compile(src, streams)
}

type parser struct {
	src  string
	toks []token
	i    int
	// script is set when parsing a script rather than a bare SELECT;
	// inSelect while the SELECT rules read.
	script, inSelect bool
	// lastEnd is the byte offset just past the most recently terminated
	// statement (its ';', or EOF), recorded by expectEnd.
	lastEnd int
}

// cur returns the current token as the active rules see it: a word they
// reserve is a lower-cased keyword, and inside a script's SELECT the
// statement's ';' or INTO reads as end of input, placed where the SELECT
// text ends.
func (p *parser) cur() token {
	t := p.toks[p.i]
	keywords := stmtKeywords
	if p.inSelect {
		keywords = selectKeywords
		if p.script && (t.kind == tokEOF || t.kind == tokPunct && t.text == ";" ||
			t.kind == tokIdent && strings.EqualFold(t.text, "into")) {
			return token{kind: tokEOF, pos: len(strings.TrimRightFunc(p.src[:t.pos], unicode.IsSpace))}
		}
	}
	if t.kind == tokIdent {
		if lower := strings.ToLower(t.text); keywords[lower] {
			return token{tokKeyword, lower, t.pos}
		}
	}
	return t
}

func (p *parser) next() token { t := p.cur(); p.i++; return t }

// at reports whether the current token has the kind and, unless text is
// empty, the text.
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

// expect consumes the keyword or punctuation text.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, p.errf("expected %q, found %s", text, describe(p.cur()))
	}
	return p.next(), nil
}

// expectIdent consumes an identifier; what names it in the error.
func (p *parser) expectIdent(what string) (token, error) {
	if !p.at(tokIdent, "") {
		return token{}, p.errf("expected %s, found %s", what, describe(p.cur()))
	}
	return p.next(), nil
}

// describe names a token in error messages.
func describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return "'" + t.text + "'"
	}
	return strconv.Quote(t.text)
}

// errf builds an Error at the current token.
func (p *parser) errf(format string, args ...any) error {
	return ErrorAt(p.src, p.cur().pos, format, args...)
}

// expectEnd consumes the statement's terminating ';' (EOF is accepted for
// the final statement).
func (p *parser) expectEnd() error {
	if t := p.cur(); t.kind == tokEOF {
		p.lastEnd = t.pos
		return nil
	}
	t, err := p.expect(tokPunct, ";")
	if err == nil {
		p.lastEnd = t.pos + 1
	}
	return err
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "create"):
		return p.parseCreate()
	case p.at(tokKeyword, "drop"):
		return p.parseDrop()
	case p.at(tokKeyword, "pause"), p.at(tokKeyword, "resume"):
		return p.parsePauseResume()
	}
	return nil, p.errf("expected statement keyword (create, drop, pause, resume), found %s", describe(p.cur()))
}

// parseKind consumes STREAM | SOURCE | SINK.
func (p *parser) parseKind() (ObjectKind, error) {
	for k := KindStream; k <= KindSink; k++ {
		if p.accept(tokKeyword, k.String()) {
			return k, nil
		}
	}
	return 0, p.errf("expected \"stream\", \"source\" or \"sink\", found %s", describe(p.cur()))
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // create
	kind, err := p.parseKind()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent(kind.String() + " name")
	if err != nil {
		return nil, err
	}
	if kind == KindStream {
		return p.parseCreateStream(name.text)
	}
	// CREATE SOURCE|SINK name TYPE t [WITH (...)] ;
	if _, err := p.expect(tokKeyword, "type"); err != nil {
		return nil, err
	}
	typ, err := p.expectIdent(kind.String() + " type")
	if err != nil {
		return nil, err
	}
	props, err := p.parseWith()
	if err != nil {
		return nil, err
	}
	if err := p.expectEnd(); err != nil {
		return nil, err
	}
	if kind == KindSource {
		return &CreateSource{Name: name.text, Type: strings.ToLower(typ.text), Props: props}, nil
	}
	return &CreateSink{Name: name.text, Type: strings.ToLower(typ.text), Props: props}, nil
}

var emitters = map[string]Emitter{"istream": EmitIStream, "dstream": EmitDStream, "rstream": EmitRStream}

func (p *parser) parseCreateStream(name string) (Statement, error) {
	props, err := p.parseWith()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "as"); err != nil {
		return nil, err
	}
	st := &CreateStream{Name: name, Props: props}
	if e, ok := emitters[p.cur().text]; ok && p.at(tokKeyword, "") {
		st.Emitter = e
		p.i++
	}
	// Checked here so the message names the token as the statement rules
	// see it.
	if !p.at(tokKeyword, "select") {
		return nil, p.errf("expected \"select\", found %s", describe(p.cur()))
	}
	p.inSelect = true
	st.Select, err = p.parseSelect(name)
	p.inSelect = false
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "into") {
		sink, err := p.expectIdent("sink name")
		if err != nil {
			return nil, err
		}
		st.Into = sink.text
	}
	if err := p.expectEnd(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // drop
	kind, err := p.parseKind()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent(kind.String() + " name")
	if err != nil {
		return nil, err
	}
	if err := p.expectEnd(); err != nil {
		return nil, err
	}
	return &Drop{Kind: kind, Name: name.text}, nil
}

func (p *parser) parsePauseResume() (Statement, error) {
	verb := p.next() // pause | resume
	// The STREAM keyword is optional: PAUSE name == PAUSE STREAM name.
	p.accept(tokKeyword, "stream")
	name, err := p.expectIdent("stream name")
	if err != nil {
		return nil, err
	}
	if err := p.expectEnd(); err != nil {
		return nil, err
	}
	if verb.text == "pause" {
		return &Pause{Name: name.text}, nil
	}
	return &Resume{Name: name.text}, nil
}

// parseWith parses an optional WITH (k=v, ...) clause.
func (p *parser) parseWith() ([]Prop, error) {
	if !p.accept(tokKeyword, "with") {
		return nil, nil
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var props []Prop
	for {
		key, err := p.expectIdent("property name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "="); err != nil {
			return nil, err
		}
		pr := Prop{Pos: key.pos, Key: strings.ToLower(key.text)}
		neg := p.accept(tokPunct, "-")
		switch val := p.cur(); {
		case val.kind == tokNumber:
			pr.Value = val.text
			if neg {
				pr.Value = "-" + pr.Value
			}
		case neg:
			return nil, p.errf("expected number after \"-\", found %s", describe(val))
		case val.kind == tokIdent || val.kind == tokKeyword:
			pr.Value = val.text
		case val.kind == tokString:
			pr.Value = val.text
			pr.Quoted = true
		default:
			return nil, p.errf("expected property value, found %s", describe(val))
		}
		p.i++
		props = append(props, pr)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return props, nil
}
