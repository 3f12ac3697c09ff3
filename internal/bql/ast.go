package bql

import "strings"

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

// Statement is one parsed BQL statement.
type Statement interface {
	// Position returns the statement's starting byte offset in the script.
	Position() int
	stmt()
}

// Script is a parsed BQL script: the raw source (kept for error position
// remapping against embedded SELECT spans) and its statements in order.
type Script struct {
	Src   string
	Stmts []Statement
}

// Text returns the verbatim source of one statement, without the
// terminating semicolon — the canonical replayable form the catalog logs
// into checkpoints.
func (sc *Script) Text(st Statement) string {
	end := statementEnd(st)
	if end <= st.Position() || end > len(sc.Src) {
		end = len(sc.Src)
	}
	return strings.TrimRight(strings.TrimSpace(sc.Src[st.Position():end]), ";")
}

func statementEnd(st Statement) int {
	switch st := st.(type) {
	case *CreateSource:
		return st.End
	case *CreateSink:
		return st.End
	case *CreateStream:
		return st.End
	case *Drop:
		return st.End
	case *Pause:
		return st.End
	case *Resume:
		return st.End
	}
	return 0
}

func setStatementEnd(st Statement, end int) {
	switch st := st.(type) {
	case *CreateSource:
		st.End = end
	case *CreateSink:
		st.End = end
	case *CreateStream:
		st.End = end
	case *Drop:
		st.End = end
	case *Pause:
		st.End = end
	case *Resume:
		st.End = end
	}
}

// CreateSource declares a named input: CREATE SOURCE name TYPE gen|tcp
// WITH (...). The source's name is the stream name that CREATE STREAM
// selects FROM.
type CreateSource struct {
	Pos, End int
	Name     string
	Type     string
	Props    []Prop
}

// CreateSink declares a named output: CREATE SINK name TYPE null|file
// WITH (...).
type CreateSink struct {
	Pos, End int
	Name     string
	Type     string
	Props    []Prop
}

// CreateStream registers a continuous query: CREATE STREAM name
// [WITH (...)] AS [emitter] SELECT ... [INTO sink]. Select holds the
// verbatim cql text starting at SelectPos in the script source; it is
// parsed during analysis so Parse stays schema-free.
type CreateStream struct {
	Pos, End  int
	Name      string
	Props     []Prop
	Emitter   Emitter
	Select    string
	SelectPos int
	Into      string // sink name; "" routes to the default sink
}

// Drop removes a catalog object: DROP STREAM|SOURCE|SINK name.
type Drop struct {
	Pos, End int
	Kind     ObjectKind
	Name     string
}

// Pause quiesces a stream at a task boundary: PAUSE STREAM name.
type Pause struct {
	Pos, End int
	Name     string
}

// Resume restarts a paused stream: RESUME STREAM name.
type Resume struct {
	Pos, End int
	Name     string
}

func (s *CreateSource) Position() int { return s.Pos }
func (s *CreateSink) Position() int   { return s.Pos }
func (s *CreateStream) Position() int { return s.Pos }
func (s *Drop) Position() int         { return s.Pos }
func (s *Pause) Position() int        { return s.Pos }
func (s *Resume) Position() int       { return s.Pos }

func (*CreateSource) stmt() {}
func (*CreateSink) stmt()   {}
func (*CreateStream) stmt() {}
func (*Drop) stmt()         {}
func (*Pause) stmt()        {}
func (*Resume) stmt()       {}
