package bql_test

import (
	"errors"
	"strings"
	"testing"

	"saber/internal/bql"
	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// paperStreams declares the Appendix A streams.
func paperStreams() bql.Streams {
	taskEvents := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "jobId", Type: schema.Int64},
		schema.Field{Name: "taskId", Type: schema.Int64},
		schema.Field{Name: "machineId", Type: schema.Int64},
		schema.Field{Name: "eventType", Type: schema.Int32},
		schema.Field{Name: "userId", Type: schema.Int32},
		schema.Field{Name: "category", Type: schema.Int32},
		schema.Field{Name: "priority", Type: schema.Int32},
		schema.Field{Name: "cpu", Type: schema.Float32},
		schema.Field{Name: "ram", Type: schema.Float32},
		schema.Field{Name: "disk", Type: schema.Float32},
		schema.Field{Name: "constraints", Type: schema.Int32},
	)
	smartGrid := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "value", Type: schema.Float32},
		schema.Field{Name: "property", Type: schema.Int32},
		schema.Field{Name: "plug", Type: schema.Int32},
		schema.Field{Name: "household", Type: schema.Int32},
		schema.Field{Name: "house", Type: schema.Int32},
	)
	posSpeed := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "vehicle", Type: schema.Int32},
		schema.Field{Name: "speed", Type: schema.Float32},
		schema.Field{Name: "highway", Type: schema.Int32},
		schema.Field{Name: "lane", Type: schema.Int32},
		schema.Field{Name: "direction", Type: schema.Int32},
		schema.Field{Name: "position", Type: schema.Int32},
	)
	globalLoad := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "globalAvgLoad", Type: schema.Float32},
	)
	localLoad := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "plug", Type: schema.Int32},
		schema.Field{Name: "household", Type: schema.Int32},
		schema.Field{Name: "house", Type: schema.Int32},
		schema.Field{Name: "localAvgLoad", Type: schema.Float32},
	)
	return bql.Streams{
		"TaskEvents":    taskEvents,
		"SmartGridStr":  smartGrid,
		"PosSpeedStr":   posSpeed,
		"SegSpeedStr":   posSpeed,
		"GlobalLoadStr": globalLoad,
		"LocalLoadStr":  localLoad,
	}
}

// TestAppendixACM1 parses the paper's CM1 listing verbatim.
func TestAppendixACM1(t *testing.T) {
	q, err := bql.ParseQuery("CM1", `
		select timestamp, category, sum(cpu) as totalCpu
		from TaskEvents [range 60 slide 1]
		group by category`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsAggregation() || len(q.Aggregates) != 1 || q.Aggregates[0].Func != query.Sum {
		t.Fatalf("aggregates = %+v", q.Aggregates)
	}
	if q.Aggregates[0].As != "totalCpu" {
		t.Errorf("alias = %q", q.Aggregates[0].As)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Name != "category" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	w := q.Inputs[0].Window
	if w.Kind != window.Time || w.Size != 60 || w.Slide != 1 {
		t.Errorf("window = %v", w)
	}
	out := q.OutputSchema()
	if out.IndexOf("totalCpu") != 2 {
		t.Errorf("output schema = %s", out)
	}
}

// TestAppendixACM2 parses CM2 verbatim.
func TestAppendixACM2(t *testing.T) {
	q, err := bql.ParseQuery("CM2", `
		select timestamp, jobId, avg(cpu) as avgCpu
		from TaskEvents [range 60 slide 1]
		where eventType == 1
		group by jobId`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("where dropped")
	}
	if q.Aggregates[0].Func != query.Avg {
		t.Errorf("func = %v", q.Aggregates[0].Func)
	}
}

// TestAppendixASG1 parses SG1 verbatim (upper-case AVG, tumbling default
// absent: explicit slide).
func TestAppendixASG1(t *testing.T) {
	q, err := bql.ParseQuery("SG1", `
		select timestamp, AVG(value) as globalAvgLoad
		from SmartGridStr [range 3600 slide 1]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 0 || len(q.Aggregates) != 1 {
		t.Fatalf("parsed = %+v", q)
	}
}

// TestAppendixASG2 parses SG2 verbatim.
func TestAppendixASG2(t *testing.T) {
	q, err := bql.ParseQuery("SG2", `
		select timestamp, plug, household, house, AVG(value) as localAvgLoad
		from SmartGridStr [range 3600 slide 1]
		group by plug, household, house`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 3 {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	out := q.OutputSchema()
	for i, n := range []string{"timestamp", "plug", "household", "house", "localAvgLoad"} {
		if out.Field(i).Name != n {
			t.Errorf("output field %d = %q want %q", i, out.Field(i).Name, n)
		}
	}
}

// TestAppendixASG3Join parses the join core of SG3.
func TestAppendixASG3Join(t *testing.T) {
	q, err := bql.ParseQuery("SG3", `
		select L.timestamp, L.plug, L.household, L.house
		from LocalLoadStr [range 1 slide 1] as L,
		     GlobalLoadStr [range 1 slide 1] as G
		where L.timestamp == G.timestamp and L.localAvgLoad > G.globalAvgLoad`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsJoin() || q.JoinPred == nil || q.Where != nil {
		t.Fatalf("join parse wrong: %+v", q)
	}
	and, ok := q.JoinPred.(expr.And)
	if !ok || len(and.Preds) != 2 {
		t.Fatalf("join pred = %v", q.JoinPred)
	}
	if len(q.Projection) != 4 {
		t.Errorf("projection = %v", q.Projection)
	}
}

// TestAppendixALRB1 parses LRB1 verbatim, including the arithmetic
// projection and the unbounded window.
func TestAppendixALRB1(t *testing.T) {
	q, err := bql.ParseQuery("LRB1", `
		select timestamp, vehicle, speed,
		       highway, lane, direction,
		       (position/5280) as segment
		from PosSpeedStr [range unbounded]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if q.Inputs[0].Window.Kind != window.Unbounded {
		t.Errorf("window = %v", q.Inputs[0].Window)
	}
	if got := q.OutputSchema().IndexOf("segment"); got != 6 {
		t.Errorf("segment index = %d", got)
	}
}

// TestAppendixALRB3 parses LRB3 verbatim, including HAVING.
func TestAppendixALRB3(t *testing.T) {
	q, err := bql.ParseQuery("LRB3", `
		select timestamp, highway, direction, segment,
		       AVG(speed) as avgSpeed
		from SegSpeedStr [range 300 slide 1]
		group by highway, direction, segment
		having avgSpeed < 40.0`, paperStreams())
	if err == nil {
		t.Fatal("expected error: SegSpeedStr lacks a segment column pre-derivation")
	}
	// Chained form: LRB3 runs over LRB1's output (SegSpeedStr with segment).
	streams := lrb3Streams()
	q, err = bql.ParseQuery("LRB3", `
		select timestamp, highway, direction, segment, AVG(speed) as avgSpeed
		from SegSpeedStr2 [range 300 slide 1]
		group by highway, direction, segment
		having avgSpeed < 40.0`, streams)
	if err != nil {
		t.Fatal(err)
	}
	if q.Having == nil {
		t.Fatal("having dropped")
	}
}

// lrb3Streams adds SegSpeedStr2, LRB1's output with its derived segment.
func lrb3Streams() bql.Streams {
	streams := paperStreams()
	seg, _ := streams["SegSpeedStr"].Concat(schema.MustNew(schema.Field{Name: "segment", Type: schema.Int32}), "")
	streams["SegSpeedStr2"] = seg
	return streams
}

func TestSelectStar(t *testing.T) {
	q, err := bql.ParseQuery("all", `select * from TaskEvents [rows 1024 slide 512] where cpu > 0.5`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 0 || q.Where == nil {
		t.Fatalf("parsed = %+v", q)
	}
	if !q.OutputSchema().Equal(paperStreams()["TaskEvents"]) {
		t.Error("select * output schema differs from input")
	}
	w := q.Inputs[0].Window
	if w.Kind != window.Count || w.Size != 1024 || w.Slide != 512 {
		t.Errorf("window = %v", w)
	}
}

func TestTumblingDefault(t *testing.T) {
	q, err := bql.ParseQuery("t", `select * from TaskEvents [rows 64]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Inputs[0].Window.Tumbling() {
		t.Errorf("window = %v, want tumbling", q.Inputs[0].Window)
	}
	q2, err := bql.ParseQuery("t2", `select * from TaskEvents [range 500]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if w := q2.Inputs[0].Window; !w.Tumbling() || w.Kind != window.Time {
		t.Errorf("window = %v", w)
	}
}

func TestComplexPredicates(t *testing.T) {
	q, err := bql.ParseQuery("p", `
		select * from TaskEvents [rows 4]
		where eventType == 2 and (cpu > 0.9 or ram > 0.9) and not (priority < 1)`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(expr.And)
	if !ok || len(and.Preds) != 3 {
		t.Fatalf("where = %v", q.Where)
	}
	if _, ok := and.Preds[1].(expr.Or); !ok {
		t.Errorf("second conjunct = %T", and.Preds[1])
	}
	if _, ok := and.Preds[2].(expr.Not); !ok {
		t.Errorf("third conjunct = %T", and.Preds[2])
	}
}

func TestParenthesisedArithmeticInPredicate(t *testing.T) {
	q, err := bql.ParseQuery("p", `select * from TaskEvents [rows 4] where (cpu + ram) * 2.0 >= 1.0`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := q.Where.(expr.Cmp)
	if !ok || cmp.Op != expr.Ge {
		t.Fatalf("where = %v", q.Where)
	}
}

func TestCountStar(t *testing.T) {
	q, err := bql.ParseQuery("c", `select timestamp, category, count(*) as n from TaskEvents [rows 8] group by category`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggregates[0].Func != query.Count || q.Aggregates[0].Arg != nil {
		t.Fatalf("count = %+v", q.Aggregates[0])
	}
}

func TestDistinct(t *testing.T) {
	q, err := bql.ParseQuery("d", `select distinct vehicle from PosSpeedStr [rows 16]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("distinct dropped")
	}
}

func TestComments(t *testing.T) {
	q, err := bql.ParseQuery("c", `
		-- Query 1
		select timestamp -- keep the timestamp
		from TaskEvents [rows 4]`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 1 {
		t.Fatalf("projection = %v", q.Projection)
	}
}

func TestNegativeAndUnaryMinus(t *testing.T) {
	q, err := bql.ParseQuery("n", `select * from TaskEvents [rows 4] where cpu > -0.5 and -priority < 0`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("where dropped")
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	q, err := bql.ParseQuery("k", `SELECT timestamp FROM TaskEvents [ROWS 4] WHERE cpu > 0.1`, paperStreams())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 1 || q.Where == nil {
		t.Fatalf("parsed = %+v", q)
	}
}

func TestParseQueryErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ``},
		{"noSelect", `from TaskEvents [rows 4]`},
		{"unknownStream", `select * from Nope [rows 4]`},
		{"noWindow", `select * from TaskEvents`},
		{"badWindow", `select * from TaskEvents [banana 4]`},
		{"partition", `select * from TaskEvents [partition by jobId rows 1]`},
		{"sumStar", `select sum(*) from TaskEvents [rows 4]`},
		{"trailing", `select * from TaskEvents [rows 4] garbage`},
		{"unknownColumn", `select nope from TaskEvents [rows 4]`},
		{"badChar", `select # from TaskEvents [rows 4]`},
		{"danglingCmp", `select * from TaskEvents [rows 4] where cpu >`},
		{"notAPred", `select * from TaskEvents [rows 4] where cpu`},
		{"unclosedParen", `select * from TaskEvents [rows 4] where (cpu > 1`},
		{"threeStreams", `select * from TaskEvents [rows 4], TaskEvents [rows 4], TaskEvents [rows 4]`},
		{"aggPlusColumn", `select cpu, sum(ram) as s from TaskEvents [rows 4]`},
		{"badHaving", `select sum(cpu) as s from TaskEvents [rows 4] having nope > 1`},
		{"floatRows", `select * from TaskEvents [rows 4.5]`},
	}
	for _, c := range cases {
		if _, err := bql.ParseQuery(c.name, c.src, paperStreams()); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	streams := bql.Streams{"S": schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "value", Type: schema.Float32},
	)}
	cases := []struct {
		name      string
		src       string
		line, col int
	}{
		{"bad window keyword", "select *\nfrom S [bogus 10]", 2, 9},
		{"unknown stream", "select * from Nope [rows 4]", 1, 15},
		{"unexpected char", "select ?\nfrom S [rows 4]", 1, 8},
		{"trailing input", "select * from S [rows 4] extra", 1, 26},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := bql.ParseQuery("q", tc.src, streams)
			if err == nil {
				t.Fatalf("parse succeeded, want error")
			}
			var pe *bql.Error
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *bql.Error", err)
			}
			if pe.Line != tc.line || pe.Col != tc.col {
				t.Fatalf("error at line %d col %d, want line %d col %d (%v)",
					pe.Line, pe.Col, tc.line, tc.col, err)
			}
			if !strings.HasPrefix(err.Error(), "bql: line ") {
				t.Fatalf("error %q does not name the line", err)
			}
		})
	}
}

// TestFoundEndOfInput: every "found ..." message names the token, so a
// SELECT cut short reads "found end of input", in a bare SELECT and in a
// script statement alike — one case per site that used to print "".
func TestFoundEndOfInput(t *testing.T) {
	cases := []struct {
		site, src, msg string
		col            int
	}{
		{"window spec", `select * from TaskEvents [`, "expected window specification, found end of input", 27},
		{"comparison", `select * from TaskEvents [rows 4] where cpu`, "expected comparison operator, found end of input", 44},
		{"factor", `select * from TaskEvents [rows 4] where`, "expected expression, found end of input", 40},
	}
	for _, c := range cases {
		_, err := bql.ParseQuery("q", c.src, paperStreams())
		if e, ok := err.(*bql.Error); !ok || e.Msg != c.msg || e.Line != 1 || e.Col != c.col {
			t.Errorf("%s: bare SELECT error %v, want 1:%d %q", c.site, err, c.col, c.msg)
		}
		// In a script the statement's ';' ends the SELECT, at the same column
		// once the statement prefix is accounted for.
		const prefix = "CREATE STREAM s AS "
		_, err = bql.Parse(prefix + c.src + " ;")
		if e, ok := err.(*bql.Error); !ok || e.Msg != c.msg || e.Col != len(prefix)+c.col {
			t.Errorf("%s: script error %v, want col %d %q", c.site, err, len(prefix)+c.col, c.msg)
		}
	}
}
