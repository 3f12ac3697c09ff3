package bql_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"saber/internal/bql"
	"saber/internal/catalog"
	"saber/internal/schema"
)

// TestGolden replays testdata/golden.txt: every input of the front end's
// unit, error and fuzz-seed tests plus examples/quickstart.bql, with the
// outcome recorded before the SELECT parser was folded into this package
// (see the file's header for the format). The parser must reproduce each
// outcome exactly — accepted query or statements, or error line, column
// and message — except for the error prefix and "found end of input",
// which replaced a bare `found ""` at the end of a SELECT.
func TestGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, rec := range strings.Split(string(b), "\n\n") {
		lines := strings.Split(strings.TrimSpace(rec), "\n")
		if strings.HasPrefix(lines[0], "#") || lines[0] == "" {
			continue
		}
		mode, streams, name, src := goldenHeader(t, lines[0])
		var got []string
		if mode == "select" {
			got = recordSelect(name, src, goldenStreams(t, streams))
		} else {
			got = recordScript(src, goldenStreams(t, streams))
		}
		want := lines[1:]
		for i := range want {
			want[i] = strings.TrimPrefix(want[i], "\t")
		}
		if reordered[src] {
			checkReordered(t, src, got, want)
		} else if strings.Join(got, "\n") != normalize(strings.Join(want, "\n")) {
			t.Errorf("%s %q:\n got %s\nwant %s", mode, src, strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
		records++
	}
	if records < 150 {
		t.Fatalf("replayed only %d golden records", records)
	}
}

// reordered lists the inputs holding two errors: an unknown FROM stream and
// a later syntax error in the same SELECT. The recorded outcome names the
// stream, because the old SELECT parser looked streams up as it read them;
// syntax is now checked before streams are bound (a script's schemas are
// only known at analysis), so the later syntax error is reported instead.
var reordered = map[string]bool{
	"select * from S [rows 4] where a > 1.5e3 -- tail":                                       true,
	"CREATE STREAM s AS SELECT sum(a+b) FROM x [rows 4] HAVING sum(a+b) > 2; DROP STREAM s;": true,
}

// checkReordered asserts the one difference reordered allows: the input is
// still rejected, by a positioned error after the recorded unknown stream.
func checkReordered(t *testing.T, src string, got, want []string) {
	t.Helper()
	var gl, gc, wl, wc int
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("reordered %q: got %v, want %v", src, got, want)
	}
	_, gerr := fmt.Sscanf(got[0], "err %d:%d", &gl, &gc)
	_, werr := fmt.Sscanf(want[0], "err %d:%d", &wl, &wc)
	if gerr != nil || werr != nil || !strings.Contains(want[0], `"unknown stream`) ||
		gl < wl || gl == wl && gc <= wc {
		t.Errorf("reordered %q:\n got %s\nwant a syntax error after %s", src, got[0], want[0])
	}
}

// goldenHeader splits `<mode> <streams> <quoted name> <quoted src>`.
func goldenHeader(t *testing.T, line string) (mode, streams, name, src string) {
	t.Helper()
	f := strings.SplitN(line, " ", 3)
	if len(f) != 3 {
		t.Fatalf("bad golden header %q", line)
	}
	qn, err := strconv.QuotedPrefix(f[2])
	if err == nil {
		name, err = strconv.Unquote(qn)
	}
	if err == nil {
		src, err = strconv.Unquote(strings.TrimPrefix(f[2], qn+" "))
	}
	if err != nil {
		t.Fatalf("bad golden header %q: %v", line, err)
	}
	return f[0], f[1], name, src
}

// normalize applies the two intended changes to a recorded outcome: the
// old "cql: " error prefix is gone, and end of input reads as such.
func normalize(s string) string {
	s = strings.ReplaceAll(s, `found \"\"`, `found end of input`)
	return strings.ReplaceAll(s, ` "cql: `, ` "`)
}

func goldenStreams(t *testing.T, name string) bql.Streams {
	switch name {
	case "paper":
		return paperStreams()
	case "paper-lrb3":
		return lrb3Streams()
	case "s":
		return bql.Streams{"S": schema.MustNew(
			schema.Field{Name: "timestamp", Type: schema.Int64},
			schema.Field{Name: "value", Type: schema.Float32},
		)}
	case "syn":
		return synStreams()
	}
	t.Fatalf("unknown golden stream set %q", name)
	return nil
}

func errLine(err error) string {
	line, col, msg := 0, 0, err.Error()
	if e, ok := err.(*bql.Error); ok {
		line, col, msg = e.Line, e.Col, e.Msg
	}
	return fmt.Sprintf("err %d:%d %s", line, col, strconv.Quote(msg))
}

func recordSelect(name, src string, streams bql.Streams) []string {
	q, err := bql.ParseQuery(name, src, streams)
	if err != nil {
		return []string{errLine(err)}
	}
	return []string{"ok " + strconv.Quote(q.String()+" => "+q.OutputSchema().String())}
}

// recordScript analyzes each statement in order, as the catalog does: a
// CREATE SOURCE adds its stream for the statements after it.
func recordScript(src string, streams bql.Streams) []string {
	sc, err := bql.Parse(src)
	if err != nil {
		return []string{errLine(err)}
	}
	lines := []string{"ok"}
	for _, st := range sc.Stmts {
		var spec string
		switch st := st.(type) {
		case *bql.CreateSource:
			s, err := catalog.AnalyzeSource(sc.Src, st)
			if err != nil {
				return []string{errLine(err)}
			}
			streams[s.Name] = s.Schema
			spec = fmt.Sprintf("source %s type=%s schema=%s (%s) seed=%d rate=%g count=%d vehicles=%d addr=%q",
				s.Name, s.Type, s.SchemaName, s.Schema, s.Seed, s.Rate, s.Count, s.Vehicles, s.Addr)
		case *bql.CreateSink:
			s, err := catalog.AnalyzeSink(sc.Src, st)
			if err != nil {
				return []string{errLine(err)}
			}
			spec = fmt.Sprintf("sink %s type=%s path=%q", s.Name, s.Type, s.Path)
		case *bql.CreateStream:
			s, err := bql.AnalyzeStream(sc.Src, st, streams)
			if err != nil {
				return []string{errLine(err)}
			}
			ov := "-"
			if s.Overload != nil {
				ov = fmt.Sprintf("%+v", *s.Overload)
			}
			spec = fmt.Sprintf("stream %s emitter=%s into=%q overload=%s query=%s => %s",
				st.Name, s.Emitter, s.Into, ov, s.Query, s.Query.OutputSchema())
		case *bql.Drop:
			spec = fmt.Sprintf("drop %s %s", st.Kind, st.Name)
		case *bql.Pause:
			spec = "pause " + st.Name
		case *bql.Resume:
			spec = "resume " + st.Name
		}
		lines = append(lines, "stmt "+strconv.Quote(sc.Text(st)+" => "+spec))
	}
	return lines
}
