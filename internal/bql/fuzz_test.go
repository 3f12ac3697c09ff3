package bql_test

import (
	"strings"
	"testing"

	"saber/internal/bql"
	"saber/internal/catalog"
)

// FuzzParse runs arbitrary scripts through the lexer + parser and, for
// scripts that parse, through analysis of every statement. The contract:
// malformed input always comes back as an error (never a panic, hang or
// out-of-range slice), parsing is deterministic, and every error is a
// *bql.Error positioned inside the source. Scripts reach this path
// verbatim from operator-supplied .bql files and the admin DDL endpoint.
func FuzzParse(f *testing.F) {
	// Every statement form...
	f.Add(`CREATE SOURCE Syn TYPE gen WITH (gen='syn', seed=1, rate=1000, count=50000);`)
	f.Add(`CREATE SOURCE Ext TYPE tcp WITH (schema='cm', addr='127.0.0.1:9900');`)
	f.Add(`CREATE SOURCE Roads TYPE gen WITH (gen='lrb', vehicles=128);`)
	f.Add(`CREATE SINK devnull TYPE null;`)
	f.Add(`CREATE SINK archive TYPE file WITH (path='/tmp/out.bin');`)
	f.Add(`CREATE STREAM f AS SELECT * FROM Syn [rows 64 slide 32] WHERE a2 < 4;`)
	f.Add(`CREATE STREAM g AS RSTREAM SELECT sum(a2), count(*) FROM Syn [range 16] GROUP BY a3 INTO archive;`)
	f.Add(`CREATE STREAM h AS ISTREAM SELECT a2+a3 AS s FROM Syn [range unbounded];`)
	f.Add(`CREATE STREAM i WITH (max_queue_bytes=65536, shed_policy=oldest, max_wait_ms=2, seed=3) AS DSTREAM SELECT * FROM Syn [rows 4];`)
	f.Add("DROP STREAM f;\nDROP SOURCE Syn;\nDROP SINK devnull;")
	f.Add("PAUSE STREAM f; RESUME STREAM f; PAUSE f; RESUME f;")
	f.Add("-- comment only\n;;;\n")
	// ...and malformed ones, weighted toward WITH-spec mistakes.
	f.Add(`CREATE STREAM f WITH max_queue_bytes=1 AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (max_queue_bytes) AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (max_queue_bytes=) AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (max_queue_bytes=-1) AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (shed_policy='sometimes') AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (seed=1,) AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE STREAM f WITH (a=1 b=2) AS SELECT * FROM Syn [rows 4];`)
	f.Add(`CREATE SOURCE S TYPE gen WITH (gen=syn', seed=);`)
	f.Add(`CREATE SOURCE S TYPE;`)
	f.Add(`CREATE STREAM s AS SELECT`)
	f.Add(`CREATE STREAM s AS SELECT * FROM Syn [rows 4] INTO;`)
	f.Add(`DROP;`)
	f.Add(`PAUSE RESUME;`)
	f.Add("CREATE STREAM s AS SELECT 'unterminated")
	f.Add(strings.Repeat("(", 500))
	f.Add(strings.Repeat("CREATE STREAM s AS SELECT * FROM Syn [rows 4]; ", 50))
	f.Add("CREATE\x00STREAM s;")

	f.Fuzz(func(t *testing.T, src string) {
		sc1, err1 := bql.Parse(src)
		sc2, err2 := bql.Parse(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic outcome for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			checkErr(t, src, err1)
			return
		}
		if sc1 == nil || sc2 == nil || len(sc1.Stmts) != len(sc2.Stmts) {
			t.Fatalf("non-deterministic parse for %q", src)
		}
		// Analysis of parsed statements must also never panic; errors are
		// fine (unknown streams, bad props), but must carry positions.
		for _, st := range sc1.Stmts {
			var err error
			switch st := st.(type) {
			case *bql.CreateStream:
				_, err = bql.AnalyzeStream(sc1.Src, st, synStreams())
			case *bql.CreateSource:
				_, err = catalog.AnalyzeSource(sc1.Src, st)
			case *bql.CreateSink:
				_, err = catalog.AnalyzeSink(sc1.Src, st)
			}
			if err != nil {
				checkErr(t, src, err)
			}
		}
	})
}

func checkErr(t *testing.T, src string, err error) {
	t.Helper()
	be, ok := err.(*bql.Error)
	if !ok {
		t.Fatalf("error for %q is %T, not *bql.Error: %v", src, err, err)
	}
	if be.Offset < 0 || be.Offset > len(src) || be.Line < 1 || be.Col < 1 {
		t.Fatalf("error position out of range for %q: %+v", src, be)
	}
}

// FuzzParseQuery feeds arbitrary text through ParseQuery: lexer, SELECT
// rules, binding and validation. Malformed input must come back as an
// error — never a panic, hang or out-of-range access — and the outcome
// must be deterministic, since the engine exposes ParseQuery to
// application-supplied query strings.
func FuzzParseQuery(f *testing.F) {
	// Well-formed queries covering every clause the dialect has...
	f.Add(`select * from TaskEvents [rows 1024 slide 512] where cpu > 0.5`)
	f.Add(`select timestamp, category, count(*) as n from TaskEvents [rows 8] group by category`)
	f.Add(`select distinct vehicle from PosSpeedStr [rows 16]`)
	f.Add(`select sum(cpu) as c, avg(ram) as r from TaskEvents [range 60 slide 1] group by jobId having c > 10.0`)
	f.Add(`select * from TaskEvents [rows 4] where cpu > -0.5 and -priority < 0 or not (ram >= 1.0)`)
	f.Add(`select (cpu + ram) * 2.0 as load from TaskEvents [rows 4] -- comment`)
	f.Add(`select * from SmartGridStr [range unbounded]`)
	f.Add(`select timestamp, value from SmartGridStr [range 3600 slide 1] where house = 7`)
	// ...and malformed ones seeding the error paths.
	f.Add(`from TaskEvents [rows 4]`)
	f.Add(`select * from Nope [rows 4]`)
	f.Add(`select * from TaskEvents [banana 4]`)
	f.Add(`select * from TaskEvents [rows 4] where cpu >`)
	f.Add(`select # from TaskEvents [rows 4]`)
	f.Add(`select * from TaskEvents [rows 4] where (cpu > 1`)
	f.Add(`select * from TaskEvents [rows 99999999999999999999999]`)
	f.Add(`select sum(`)
	f.Add(`[[[[`)
	f.Add(strings.Repeat(`(`, 1000))
	f.Add("select * from TaskEvents [rows 4]\x00")

	streams := paperStreams()
	f.Fuzz(func(t *testing.T, src string) {
		q1, err1 := bql.ParseQuery("fuzz", src, streams)
		if err1 == nil && q1 == nil {
			t.Fatalf("nil query without error for %q", src)
		}
		// Determinism: a second parse of the same input must agree.
		q2, err2 := bql.ParseQuery("fuzz", src, streams)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic outcome for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			return
		}
		if q2 == nil || q1.String() != q2.String() {
			t.Fatalf("non-deterministic parse for %q", src)
		}
		// An accepted query must have survived its own validation.
		if err := q1.Validate(); err != nil {
			t.Fatalf("accepted query fails validation: %q: %v", src, err)
		}
	})
}
