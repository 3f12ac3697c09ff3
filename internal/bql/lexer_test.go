package bql

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestLexerOperators(t *testing.T) {
	toks, err := lex(`a==b != c <= d >= e < f > g = h`, false)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.kind == tokPunct {
			ops = append(ops, tk.text)
		}
	}
	want := []string{"==", "!=", "<=", ">=", "<", ">", "="}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v", ops)
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex(`12 3.5 0.25 7.`, false)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "12" || toks[1].text != "3.5" || toks[2].text != "0.25" {
		t.Errorf("tokens = %+v", toks)
	}
	// "7." lexes as number 7 then punct '.'
	if toks[3].text != "7" || toks[4].text != "." {
		t.Errorf("trailing dot tokens = %+v", toks[3:])
	}
}

func TestPosition(t *testing.T) {
	src := "ab\ncd\ne"
	for _, tc := range []struct{ off, line, col int }{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, {3, 2, 1}, {5, 2, 3}, {6, 3, 1}, {99, 3, 2},
	} {
		if l, c := Position(src, tc.off); l != tc.line || c != tc.col {
			t.Fatalf("Position(%d) = %d:%d, want %d:%d", tc.off, l, c, tc.line, tc.col)
		}
	}
}

// FuzzLex isolates the tokenizer: in either mode it must terminate and
// either reject or fully consume every byte sequence, including invalid
// UTF-8.
func FuzzLex(f *testing.F) {
	f.Add(`select * from S [rows 4] where a > 1.5e3 -- tail`)
	f.Add("\xff\xfe")
	f.Add(`"unterminated`)
	f.Add(`a.b.c 1..2 <= >= != <>`)
	f.Add(`CREATE SOURCE s TYPE gen WITH (gen='syn');`)
	f.Fuzz(func(t *testing.T, src string) {
		for _, script := range []bool{false, true} {
			toks, err := lex(src, script)
			if err != nil {
				continue
			}
			if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
				t.Fatalf("token stream for %q does not end in EOF", src)
			}
			for _, tok := range toks {
				if tok.pos < 0 || tok.pos > len(src) {
					t.Fatalf("token %q position %d outside source of %d bytes", tok.text, tok.pos, len(src))
				}
				if tok.kind == tokIdent && !utf8.ValidString(tok.text) && utf8.ValidString(src) {
					t.Fatalf("lexer fabricated invalid UTF-8 in %q from valid input", tok.text)
				}
			}
		}
	})
}
