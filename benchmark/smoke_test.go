package main

import (
	"bytes"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables holds the repo's BENCHMARK.json to the
// workload and metric tables of this program (`-print-spec` regenerates it).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Fatalf("../BENCHMARK.json differs from `go run -C benchmark . -print-spec`:\n%s", want)
	}
}

// TestSmoke runs every workload briefly in both modes with verification on.
// It asserts what must hold on any host: outputs equal the reference, no
// tuple fails, every declared metric is emitted and nothing else is, and the
// counts that depend only on the input repeat exactly. It asserts no time.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		t.Run(sp.name, func(t *testing.T) {
			e2e := runWorkload(sp, 1, 1.8, false) // six reps of 0.3 s
			layers := runWorkload(sp, 1, 1.2, true)
			for _, o := range []outcome{e2e, layers} {
				for _, err := range o.errs {
					t.Error(err)
				}
				if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d tuples failed", o.res.Correct, o.res.Failed, o.res.Attempted)
				}
			}
			for _, c := range []struct {
				defs []metricDef
				got  map[string]metric
			}{{endToEnd, e2e.res.Metrics}, {perLayer, layers.res.Metrics}} {
				if len(c.got) != len(c.defs) {
					t.Errorf("%d metrics emitted, %d declared", len(c.got), len(c.defs))
				}
				for _, d := range c.defs {
					if m, ok := c.got[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s [%s] missing or in another unit: %+v", d.name, d.unit, m)
					}
				}
			}
			for _, d := range endToEnd {
				if e2e.res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", d.name, e2e.res.Metrics[d.name].Value)
				}
			}

			// Both runs verified the same 2^20 tuples per stream: their row
			// counts must agree, and so must their task counts, except the
			// join's, whose pair cuts depend on how its two connections
			// interleave.
			a, b := e2e.verify, layers.verify
			if a.outRows != b.outRows || a.outRows == 0 {
				t.Errorf("verify rows %d and %d", a.outRows, b.outRows)
			}
			tasks := func(r *rep) float64 { return delta{b: r.final}.counter("saber.engine.", ".tasks.created") }
			if want := float64(len(sp.queries) * verifyTuples * tupleSize / sp.phi); sp.queries[0].shape != shapeJoin &&
				(tasks(a) != want || tasks(b) != want) {
				t.Errorf("verify cut %v and %v tasks, want %v", tasks(a), tasks(b), want)
			}
			wantCols := map[string]float64{"select": 0, "agg-slide": 1, "agg-durable": 1, "groupby": 2, "join-band": 4, "hybrid-mix": 4}[sp.name]
			if got := layers.res.Metrics["ringbuf.shred_cols"].Value; got != wantCols {
				t.Errorf("ringbuf.shred_cols = %v, want %v", got, wantCols)
			}
			if _, err := os.Stat("out/" + sp.name + ".trace.jsonl"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
