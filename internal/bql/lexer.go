// Package bql is SABER's streaming SQL front end: the windowed SELECT
// dialect of the paper's Appendix A ("TaskEvents [range 60 slide 1]",
// WHERE/GROUP BY/HAVING, aggregation functions, arithmetic select
// expressions) and the statements that create and manage named sources,
// continuous streams and sinks on a live engine.
//
// The statement grammar (DESIGN.md §13):
//
//	CREATE SOURCE <name> TYPE <gen|tcp> [WITH (k=v, ...)] ;
//	CREATE SINK   <name> TYPE <null|file> [WITH (k=v, ...)] ;
//	CREATE STREAM <name> [WITH (k=v, ...)]
//	       AS [ISTREAM|DSTREAM|RSTREAM] SELECT ... [INTO <sink>] ;
//	DROP   STREAM|SOURCE|SINK <name> ;
//	PAUSE  STREAM <name> ;
//	RESUME STREAM <name> ;
//
// Statements are ';'-separated; '--' starts a line comment. One lexer and
// one recursive-descent parser read both a script (Parse) and a bare
// SELECT (ParseQuery). Keywords are contextual: the statement rules and
// the SELECT rules each reserve their own words, so "count" is an
// aggregate inside a SELECT but a key in WITH (count=...), and "type" or
// "stream" name columns inside a SELECT. Parse needs no schemas — a
// script's CREATE SOURCE defines the schema a later CREATE STREAM reads —
// so the analyzer binds each FROM stream to its schema (AnalyzeStream).
package bql

import (
	"fmt"
	"strings"
	"unicode"
)

// Error is a parse or analysis error with its position in the source.
type Error struct {
	Offset    int // byte offset
	Line, Col int // 1-based
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("bql: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// ErrorAt builds an Error anchored at a byte offset of src.
func ErrorAt(src string, offset int, format string, args ...any) error {
	line, col := Position(src, offset)
	return &Error{Offset: offset, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Position converts a byte offset into a 1-based line/column pair over
// src. Offsets beyond src report the position just past the last byte.
func Position(src string, offset int) (line, col int) {
	offset = min(offset, len(src))
	line, col = 1, 1
	for i := 0; i < offset; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or decimal literal, kept as text
	tokString // single-quoted literal; text holds the unquoted value
	tokPunct
	// tokKeyword is a word the grammar being parsed reserves. The lexer
	// emits every word as tokIdent; parser.cur resolves keywords.
	tokKeyword
)

type token struct {
	kind tokenKind
	text string // keywords lower-cased; strings unquoted
	pos  int    // byte offset
}

// lex tokenizes src. String literals and ';' exist only in the statement
// grammar: a bare SELECT (script false) rejects them as unexpected
// characters.
func lex(src string, script bool) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'' && script:
			j := i + 1
			for j < len(src) && src[j] != '\'' && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] == '\n' {
				return nil, ErrorAt(src, i, "unterminated string literal")
			}
			toks = append(toks, token{tokString, src[i+1 : j], i})
			i = j + 1
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case c >= '0' && c <= '9':
			j := i + 1
			seenDot := false
			for j < len(src) {
				if src[j] >= '0' && src[j] <= '9' {
					j++
				} else if src[j] == '.' && !seenDot && j+1 < len(src) && src[j+1] >= '0' && src[j+1] <= '9' {
					seenDot = true
					j++
				} else {
					break
				}
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		default:
			if i+1 < len(src) {
				switch two := src[i : i+2]; two {
				case "==", "!=", "<=", ">=":
					toks = append(toks, token{tokPunct, two, i})
					i += 2
					continue
				}
			}
			if !strings.ContainsRune("()[],.*+-/%<>=", rune(c)) && (c != ';' || !script) {
				return nil, ErrorAt(src, i, "unexpected character %q", c)
			}
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		}
	}
	return append(toks, token{tokEOF, "", len(src)}), nil
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
