package bql

import (
	"strings"

	"saber/internal/query"
)

// Emitter selects the relation-to-stream operator applied to a stream's
// window results (paper §2.4): RStream emits the full window relation,
// IStream the tuples inserted since the previous window, DStream the
// tuples deleted. EmitDefault picks the paper's natural operator per
// query class: RStream for aggregation, IStream for everything else.
type Emitter uint8

// Emitter operators.
const (
	EmitDefault Emitter = iota
	EmitIStream
	EmitDStream
	EmitRStream
)

// String names the emitter as written in BQL.
func (e Emitter) String() string {
	return [...]string{"default", "istream", "dstream", "rstream"}[e]
}

// ObjectKind identifies the catalog object class a DDL statement targets.
type ObjectKind uint8

// Catalog object kinds.
const (
	KindStream ObjectKind = iota
	KindSource
	KindSink
)

// String names the kind as written in BQL.
func (k ObjectKind) String() string {
	return [...]string{"stream", "source", "sink"}[k]
}

// Prop is one k=v entry of a WITH (...) clause. Value holds the raw text
// for numbers and identifiers and the unquoted text for string literals.
type Prop struct {
	Pos    int
	Key    string
	Value  string
	Quoted bool
}

// Statement is one parsed BQL statement: *CreateSource, *CreateSink,
// *CreateStream, *Drop, *Pause or *Resume.
type Statement interface {
	span() *Span
}

// Span is a statement's byte range in its script: Pos at the statement's
// first keyword, End just past its terminating ';' (or at end of input).
type Span struct{ Pos, End int }

func (s *Span) span() *Span { return s }

// Script is a parsed BQL script: the raw source (statement text and
// analysis error positions refer to it) and its statements in order.
type Script struct {
	Src   string
	Stmts []Statement
}

// Text returns the verbatim source of one statement, without the
// terminating semicolon — the canonical replayable form the catalog logs
// into checkpoints.
func (sc *Script) Text(st Statement) string {
	s := st.span()
	end := s.End
	if end <= s.Pos || end > len(sc.Src) {
		end = len(sc.Src)
	}
	return strings.TrimRight(strings.TrimSpace(sc.Src[s.Pos:end]), ";")
}

// CreateSource declares a named input: CREATE SOURCE name TYPE gen|tcp
// WITH (...). The source's name is the stream name that CREATE STREAM
// selects FROM.
type CreateSource struct {
	Span
	Name  string
	Type  string
	Props []Prop
}

// CreateSink declares a named output: CREATE SINK name TYPE null|file
// WITH (...).
type CreateSink struct {
	Span
	Name  string
	Type  string
	Props []Prop
}

// CreateStream registers a continuous query: CREATE STREAM name
// [WITH (...)] AS [emitter] SELECT ... [INTO sink].
type CreateStream struct {
	Span
	Name    string
	Props   []Prop
	Emitter Emitter
	Select  *Select
	Into    string // sink name; "" routes to the default sink
}

// Select is a parsed SELECT. Its query's inputs carry name, alias and
// window but no schema: the analyzer binds each FROM stream by name
// (AnalyzeStream, ParseQuery), so parsing never needs schemas.
type Select struct {
	Pos   int // byte offset of the SELECT keyword
	Query *query.Query
	From  []int // byte offset of each FROM stream name, one per Query.Inputs
}

// Drop removes a catalog object: DROP STREAM|SOURCE|SINK name.
type Drop struct {
	Span
	Kind ObjectKind
	Name string
}

// Pause quiesces a stream at a task boundary: PAUSE STREAM name.
type Pause struct {
	Span
	Name string
}

// Resume restarts a paused stream: RESUME STREAM name.
type Resume struct {
	Span
	Name string
}
