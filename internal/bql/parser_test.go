package bql

import (
	"strings"
	"testing"
)

const sampleScript = `
-- demo catalog
CREATE SOURCE Syn TYPE gen WITH (gen='syn', seed=7, rate=100000);
CREATE SINK results TYPE file WITH (path='/tmp/out.bin');

CREATE STREAM filtered AS
  SELECT timestamp, a, b FROM Syn [rows 64 slide 32] WHERE b < 4;

CREATE STREAM totals WITH (max_queue_bytes=65536, shed_policy=oldest) AS
  RSTREAM SELECT sum(a) FROM Syn [range 16 slide 16] GROUP BY c
  INTO results;

PAUSE STREAM filtered;
RESUME filtered;
DROP STREAM totals;
DROP SOURCE Syn;
`

func TestParseScript(t *testing.T) {
	sc, err := Parse(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stmts) != 8 {
		t.Fatalf("got %d statements, want 8", len(sc.Stmts))
	}
	src, ok := sc.Stmts[0].(*CreateSource)
	if !ok || src.Name != "Syn" || src.Type != "gen" {
		t.Fatalf("stmt 0: %+v", sc.Stmts[0])
	}
	wantProps := map[string]string{"gen": "syn", "seed": "7", "rate": "100000"}
	for _, pr := range src.Props {
		if wantProps[pr.Key] != pr.Value {
			t.Errorf("source prop %s=%q", pr.Key, pr.Value)
		}
	}
	sink, ok := sc.Stmts[1].(*CreateSink)
	if !ok || sink.Name != "results" || sink.Type != "file" {
		t.Fatalf("stmt 1: %+v", sc.Stmts[1])
	}
	if len(sink.Props) != 1 || sink.Props[0].Key != "path" || sink.Props[0].Value != "/tmp/out.bin" || !sink.Props[0].Quoted {
		t.Fatalf("sink props: %+v", sink.Props)
	}

	flt, ok := sc.Stmts[2].(*CreateStream)
	if !ok || flt.Name != "filtered" {
		t.Fatalf("stmt 2: %+v", sc.Stmts[2])
	}
	if flt.Emitter != EmitDefault || flt.Into != "" || len(flt.Props) != 0 {
		t.Errorf("filtered: emitter=%v into=%q props=%v", flt.Emitter, flt.Into, flt.Props)
	}
	if want := "select timestamp, a, b from Syn [rows 64 slide 32] where b < 4"; flt.Select.Query.String() != want {
		t.Errorf("filtered select:\n got %q\nwant %q", flt.Select.Query, want)
	}
	if sampleScript[flt.Select.Pos:flt.Select.Pos+6] != "SELECT" {
		t.Errorf("Select.Pos %d does not point at SELECT", flt.Select.Pos)
	}
	if from := flt.Select.From; len(from) != 1 || sampleScript[from[0]:from[0]+3] != "Syn" {
		t.Errorf("Select.From %v does not point at Syn", from)
	}

	tot, ok := sc.Stmts[3].(*CreateStream)
	if !ok || tot.Name != "totals" {
		t.Fatalf("stmt 3: %+v", sc.Stmts[3])
	}
	if tot.Emitter != EmitRStream || tot.Into != "results" {
		t.Errorf("totals: emitter=%v into=%q", tot.Emitter, tot.Into)
	}
	if want := "select sum(a) from Syn [range 16 slide 16] group by c"; tot.Select.Query.String() != want {
		t.Errorf("totals select: %q", tot.Select.Query)
	}
	if got := sc.Text(tot); !strings.HasSuffix(got, "INTO results") {
		t.Errorf("totals text: %q", got)
	}
	if len(tot.Props) != 2 || tot.Props[0].Key != "max_queue_bytes" || tot.Props[1].Value != "oldest" {
		t.Errorf("totals props: %+v", tot.Props)
	}

	if p, ok := sc.Stmts[4].(*Pause); !ok || p.Name != "filtered" {
		t.Errorf("stmt 4: %+v", sc.Stmts[4])
	}
	if r, ok := sc.Stmts[5].(*Resume); !ok || r.Name != "filtered" {
		t.Errorf("stmt 5 (optional STREAM keyword): %+v", sc.Stmts[5])
	}
	if d, ok := sc.Stmts[6].(*Drop); !ok || d.Kind != KindStream || d.Name != "totals" {
		t.Errorf("stmt 6: %+v", sc.Stmts[6])
	}
	if d, ok := sc.Stmts[7].(*Drop); !ok || d.Kind != KindSource || d.Name != "Syn" {
		t.Errorf("stmt 7: %+v", sc.Stmts[7])
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	for _, src := range []string{"", "   \n\t", "-- just a comment\n", ";;;"} {
		sc, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		} else if len(sc.Stmts) != 0 {
			t.Errorf("Parse(%q): %d statements", src, len(sc.Stmts))
		}
	}
}

func TestParseFinalSemicolonOptional(t *testing.T) {
	sc, err := Parse("DROP STREAM s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stmts) != 1 {
		t.Fatalf("got %d statements", len(sc.Stmts))
	}
}

// TestParseErrors checks that malformed statements fail with positioned
// errors pointing at the offending token.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		line    int
		col     int
		wantMsg string
	}{
		{"FROB STREAM s;", 1, 1, "expected statement keyword"},
		{"CREATE TABLE t;", 1, 8, "expected \"stream\", \"source\" or \"sink\""},
		{"CREATE STREAM;", 1, 14, "expected stream name"},
		{"CREATE STREAM s SELECT 1;", 1, 17, "expected \"as\""},
		{"CREATE STREAM s AS FROM x;", 1, 20, "expected \"select\""},
		{"CREATE SOURCE s WITH (a=1);", 1, 17, "expected \"type\""},
		{"CREATE SOURCE s TYPE gen WITH (=1);", 1, 32, "expected property name"},
		{"CREATE SOURCE s TYPE gen WITH (a 1);", 1, 34, "expected \"=\""},
		{"CREATE SOURCE s TYPE gen WITH (a=;);", 1, 34, "expected property value"},
		{"CREATE SOURCE s TYPE gen WITH (a=1;", 1, 35, "expected \")\""},
		{"DROP s;", 1, 6, "expected \"stream\", \"source\" or \"sink\""},
		{"PAUSE STREAM;", 1, 13, "expected stream name"},
		{"DROP STREAM a b;", 1, 15, "expected \";\""},
		{"CREATE STREAM s AS SELECT 'oops", 1, 27, "unterminated string"},
		{"CREATE STREAM s AS SELECT a ~ b;", 1, 29, "unexpected character"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", tc.src)
			continue
		}
		be, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q): error type %T", tc.src, err)
			continue
		}
		if be.Line != tc.line || be.Col != tc.col {
			t.Errorf("Parse(%q): error at line %d col %d, want %d:%d (%s)",
				tc.src, be.Line, be.Col, tc.line, tc.col, be.Msg)
		}
		if !strings.Contains(be.Msg, tc.wantMsg) {
			t.Errorf("Parse(%q): msg %q does not contain %q", tc.src, be.Msg, tc.wantMsg)
		}
		if !strings.HasPrefix(err.Error(), "bql: line ") {
			t.Errorf("Parse(%q): error string %q", tc.src, err.Error())
		}
	}
}

// TestSelectSpanNesting checks that punctuation inside parentheses or
// window specs never ends a script's SELECT early: only the statement's
// own ';' or INTO does.
func TestSelectSpanNesting(t *testing.T) {
	src := "CREATE STREAM s AS SELECT sum(a+b) AS t FROM x [rows 4] HAVING t > (2); DROP STREAM s;"
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stmts) != 2 {
		t.Fatalf("got %d statements, want 2", len(sc.Stmts))
	}
	st := sc.Stmts[0].(*CreateStream)
	if want := "select sum((a + b)) as t from x [rows 4 slide 4] having t > 2"; st.Select.Query.String() != want {
		t.Errorf("select: %q", st.Select.Query)
	}
	if got := sc.Text(st); got != src[:strings.Index(src, ";")] {
		t.Errorf("text: %q", got)
	}
}
