package catalog

import (
	"testing"

	"saber/internal/bql"
	"saber/internal/workload"
)

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

func TestAnalyzeSource(t *testing.T) {
	src := "CREATE SOURCE S TYPE gen WITH (gen='cm', seed=3, rate=5000, count=100000);"
	sc, st := parseOne(t, src)
	spec, err := AnalyzeSource(sc.Src, st.(*bql.CreateSource))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schema != workload.CMSchema || spec.SchemaName != "cm" {
		t.Errorf("schema: %v (%s)", spec.Schema, spec.SchemaName)
	}
	if spec.Seed != 3 || spec.Rate != 5000 || spec.Count != 100000 {
		t.Errorf("spec: %+v", spec)
	}
	if g := spec.NewGen(); g == nil {
		t.Error("NewGen returned nil")
	} else {
		buf := g.Next(nil, 4)
		if len(buf) != 4*workload.CMSchema.TupleSize() {
			t.Errorf("generated %d bytes", len(buf))
		}
	}

	src = "CREATE SOURCE T TYPE tcp WITH (schema='syn', addr='127.0.0.1:9911');"
	sc, st = parseOne(t, src)
	spec, err = AnalyzeSource(sc.Src, st.(*bql.CreateSource))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schema != workload.SynSchema || spec.Addr != "127.0.0.1:9911" {
		t.Errorf("tcp spec: %+v", spec)
	}

	// Every generator key resolves and produces tuples.
	for _, g := range []string{"syn", "cm", "sg", "lrb"} {
		sc, st = parseOne(t, "CREATE SOURCE S TYPE gen WITH (gen='"+g+"');")
		spec, err := AnalyzeSource(sc.Src, st.(*bql.CreateSource))
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if buf := spec.NewGen().Next(nil, 2); len(buf) != 2*spec.Schema.TupleSize() {
			t.Errorf("%s: generated %d bytes", g, len(buf))
		}
	}
}

func TestAnalyzeSourceErrors(t *testing.T) {
	cases := []string{
		"CREATE SOURCE S TYPE carrierpigeon;",
		"CREATE SOURCE S TYPE gen;",
		"CREATE SOURCE S TYPE gen WITH (gen='nope');",
		"CREATE SOURCE S TYPE gen WITH (gen='syn', addr='x');",
		"CREATE SOURCE S TYPE gen WITH (gen='syn', rate=fast);",
		"CREATE SOURCE S TYPE gen WITH (gen='syn', count=-1);",
		"CREATE SOURCE S TYPE gen WITH (gen='lrb', vehicles=0);",
		"CREATE SOURCE S TYPE tcp WITH (schema='syn');",
		"CREATE SOURCE S TYPE tcp WITH (addr='x');",
		"CREATE SOURCE S TYPE tcp WITH (schema='syn', addr='x', gen='syn');",
	}
	for _, src := range cases {
		sc, st := parseOne(t, src)
		if _, err := AnalyzeSource(sc.Src, st.(*bql.CreateSource)); err == nil {
			t.Errorf("AnalyzeSource(%q) succeeded", src)
		}
	}
}

func TestAnalyzeSink(t *testing.T) {
	sc, st := parseOne(t, "CREATE SINK devnull TYPE null;")
	spec, err := AnalyzeSink(sc.Src, st.(*bql.CreateSink))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Type != "null" {
		t.Errorf("spec: %+v", spec)
	}

	sc, st = parseOne(t, "CREATE SINK f TYPE file WITH (path='/tmp/x');")
	spec, err = AnalyzeSink(sc.Src, st.(*bql.CreateSink))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Path != "/tmp/x" {
		t.Errorf("spec: %+v", spec)
	}

	for _, src := range []string{
		"CREATE SINK s TYPE smoke_signals;",
		"CREATE SINK s TYPE file;",
		"CREATE SINK s TYPE null WITH (path='/tmp/x');",
	} {
		sc, st := parseOne(t, src)
		if _, err := AnalyzeSink(sc.Src, st.(*bql.CreateSink)); err == nil {
			t.Errorf("AnalyzeSink(%q) succeeded", src)
		}
	}
}
