package bql_test

import (
	"strings"
	"testing"
	"time"

	"saber/internal/bql"
	"saber/internal/overload"
	"saber/internal/workload"
)

func synStreams() bql.Streams {
	return bql.Streams{"Syn": workload.SynSchema}
}

func parseOne(t *testing.T, src string) (*bql.Script, bql.Statement) {
	t.Helper()
	sc, err := bql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stmts) != 1 {
		t.Fatalf("got %d statements, want 1", len(sc.Stmts))
	}
	return sc, sc.Stmts[0]
}

func TestAnalyzeStreamDefaults(t *testing.T) {
	// Selection query: default emitter is IStream, no overload override.
	src := "CREATE STREAM f AS SELECT * FROM Syn [rows 64 slide 32] WHERE a2 < 4;"
	sc, st := parseOne(t, src)
	spec, err := bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Emitter != bql.EmitIStream {
		t.Errorf("selection emitter = %v, want istream", spec.Emitter)
	}
	if spec.Overload != nil {
		t.Errorf("overload override = %+v, want nil", spec.Overload)
	}
	if spec.Query == nil || spec.Query.Name != "f" {
		t.Errorf("query: %+v", spec.Query)
	}

	// Aggregation query: default emitter is RStream (paper §2.4).
	src = "CREATE STREAM g AS SELECT sum(a2) FROM Syn [range 16 slide 16];"
	sc, st = parseOne(t, src)
	spec, err = bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Emitter != bql.EmitRStream {
		t.Errorf("aggregation emitter = %v, want rstream", spec.Emitter)
	}

	// Explicit emitter wins over the default.
	src = "CREATE STREAM h AS DSTREAM SELECT sum(a2) FROM Syn [range 16 slide 16];"
	sc, st = parseOne(t, src)
	spec, err = bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Emitter != bql.EmitDStream {
		t.Errorf("explicit emitter = %v, want dstream", spec.Emitter)
	}
}

func TestAnalyzeStreamOverloadProps(t *testing.T) {
	src := "CREATE STREAM f WITH (max_queue_bytes=65536, shed_policy=weighted, max_wait_ms=5, seed=9) AS SELECT * FROM Syn [rows 4];"
	sc, st := parseOne(t, src)
	spec, err := bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams())
	if err != nil {
		t.Fatal(err)
	}
	ov := spec.Overload
	if ov == nil {
		t.Fatal("no overload override")
	}
	if ov.MaxQueueBytes != 65536 || ov.Policy != overload.ShedWeighted ||
		ov.MaxWait != 5*time.Millisecond || ov.Seed != 9 {
		t.Errorf("override: %+v", ov)
	}
}

// TestAnalyzeStreamUnknownStream checks that binding reports an unknown
// FROM stream at its name, in script coordinates.
func TestAnalyzeStreamUnknownStream(t *testing.T) {
	src := "-- header\nCREATE STREAM f AS\n  SELECT * FROM Nope [rows 4];"
	sc, st := parseOne(t, src)
	_, err := bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams())
	if err == nil {
		t.Fatal("analysis of unknown stream succeeded")
	}
	be, ok := err.(*bql.Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	// "Nope" is on line 3; col is 1-based at the stream name.
	wantCol := strings.Index("  SELECT * FROM Nope [rows 4];", "Nope") + 1
	if be.Line != 3 || be.Col != wantCol {
		t.Errorf("error at line %d col %d, want 3:%d (%s)", be.Line, be.Col, wantCol, be.Msg)
	}
	if !strings.Contains(be.Msg, "Nope") {
		t.Errorf("msg %q does not name the stream", be.Msg)
	}
}

func TestAnalyzeStreamBadProps(t *testing.T) {
	cases := []string{
		"CREATE STREAM f WITH (max_queue_bytes=0) AS SELECT * FROM Syn [rows 4];",
		"CREATE STREAM f WITH (max_queue_bytes=x) AS SELECT * FROM Syn [rows 4];",
		"CREATE STREAM f WITH (shed_policy=sometimes) AS SELECT * FROM Syn [rows 4];",
		"CREATE STREAM f WITH (max_wait_ms=oops) AS SELECT * FROM Syn [rows 4];",
		"CREATE STREAM f WITH (frobnicate=1) AS SELECT * FROM Syn [rows 4];",
	}
	for _, src := range cases {
		sc, st := parseOne(t, src)
		if _, err := bql.AnalyzeStream(sc.Src, st.(*bql.CreateStream), synStreams()); err == nil {
			t.Errorf("AnalyzeStream(%q) succeeded", src)
		} else if _, ok := err.(*bql.Error); !ok {
			t.Errorf("AnalyzeStream(%q): error type %T", src, err)
		}
	}
}
