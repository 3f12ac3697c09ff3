package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"saber/internal/exec"
	"saber/internal/expr"
	"saber/internal/obs"
	"saber/internal/query"
	"saber/internal/ringbuf"
	"saber/internal/schema"
	"saber/internal/window"
	"saber/internal/workload"
)

// The operators experiment measures the CPU batch operator functions at
// native speed — no model padding, no engine — over one pinned query-task
// batch per operator: bare, over row versus pre-shredded column batches,
// and with the engine's per-task observability bundle. Alongside the text
// report it writes a machine-readable BENCH_operators.json for CI and
// regression tracking.

func init() {
	register("operators", "CPU operator kernels: row vs columnar, metrics overhead (native speed)", operators)
}

// operatorsJSONPath is where the experiment drops its JSON twin; tests
// point it into a scratch directory.
var operatorsJSONPath = "BENCH_operators.json"

// opTrials is the best-of count per measurement. On a loaded or
// single-core host a noisy neighbour can depress several consecutive
// trials at once, so the count errs high.
const opTrials = 7

type opResult struct {
	Name string `json:"name"`
	// VectorizedMtps is the kernel's bare rate over a row-only batch.
	VectorizedMtps float64 `json:"vectorized_mtps"`
	// ColumnarMtps re-measures the kernel over a batch that carries
	// pre-shredded column segments (exec.Batch.Cols), the layout the
	// engine's columnar ring hands every task; ColumnarVsRow is the ratio
	// against the row-only rate. CI gates columnar ≥ row on every operator
	// (tools/benchguard). Operators whose kernels read rows regardless
	// (joins) sit at ~1.0.
	ColumnarMtps  float64 `json:"columnar_mtps"`
	ColumnarVsRow float64 `json:"columnar_vs_row"`
	// MetricsOnMtps re-measures the kernel with the engine's full
	// per-task observability bundle (counters, latency histogram,
	// lifecycle trace) applied once per batch; MetricsOverheadPct is the
	// throughput cost in percent. One 4096-tuple bench batch stands in
	// for a 1 MiB engine task, so this overstates the engine's actual
	// per-byte overhead by ~8x — a conservative gate.
	MetricsOnMtps      float64 `json:"metrics_on_mtps"`
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
}

type opsReport struct {
	TupleBytes  int        `json:"tuple_bytes"`
	BatchTuples int        `json:"batch_tuples"`
	Operators   []opResult `json:"operators"`
	// MetricsOverheadPct is the geometric-mean metrics-on overhead across
	// operators; CI fails the build when it exceeds 3 (tools/benchguard).
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	// Metrics embeds the final observability snapshot of the instrumented
	// runs, so a BENCH_*.json is self-describing about what was measured.
	Metrics obs.Snapshot `json:"metrics"`
}

// shredCols builds the per-field column segments for one pinned batch
// through the same ColumnStore the engine's ingest path uses, returning
// zero-copy views over the whole batch. Shredding happens once, outside
// the timed loop — in the engine it rides the ingest memcpy.
func shredCols(s *schema.Schema, data []byte) [][]byte {
	offs := make([]int, s.NumFields())
	widths := make([]int, s.NumFields())
	for f := range offs {
		offs[f] = s.Offset(f)
		widths[f] = s.Field(f).Type.Size()
	}
	n := len(data) / s.TupleSize()
	cs := ringbuf.MustNewColumnStore(offs, widths, nil, s.TupleSize(), n)
	cs.Append(data)
	views, ok := cs.Views(nil, 0, int64(n))
	if !ok {
		panic("operators: fresh column store wrapped")
	}
	return views
}

// measureOpColPair measures the kernel with row-gather batches and with
// pre-shredded column batches, interleaving the trials (as in
// measureOpPair) so the columnar/row ratio is taken within one host-speed
// regime — on a shared host the absolute rate drifts far more between two
// measurement blocks than the layouts differ. Both rates are best-of
// trials: scheduler contention only ever slows a trial down.
func measureOpColPair(q *query.Query, streams [2][]byte) (row, col float64) {
	p, err := exec.Compile(q)
	if err != nil {
		panic(fmt.Sprintf("operators: compile %s: %v", q.Name, err))
	}
	var rowB, colB [2]exec.Batch
	tuples := 0
	for i := 0; i < p.NumInputs(); i++ {
		rowB[i] = exec.Batch{Data: streams[i], Ctx: window.Context{PrevTimestamp: window.NoPrev}}
		colB[i] = rowB[i]
		if len(streams[i]) > 0 {
			colB[i].Cols = shredCols(p.InputSchema(i), streams[i])
		}
		tuples += len(streams[i]) / p.InputSchema(i).TupleSize()
	}
	iter := func(b [2]exec.Batch) {
		res := p.NewResult()
		if err := p.Process(b, res); err != nil {
			panic(err)
		}
		p.ReleaseResult(res)
	}
	iter(rowB) // warm the pools and the branch predictor
	iter(colB)
	// Start the trials with a fully swept heap: earlier tests in the same
	// process can leave tens of MiB of garbage whose lazy sweep debt the
	// measurement loop's allocations would pay.
	debug.FreeOSMemory()
	const minWall = 8 * time.Millisecond
	trial := func(b [2]exec.Batch) float64 {
		n := 0
		start := time.Now()
		var elapsed time.Duration
		for {
			iter(b)
			n++
			if elapsed = time.Since(start); elapsed >= minWall && n >= 2 {
				break
			}
		}
		return float64(tuples) * float64(n) / elapsed.Seconds() / 1e6
	}
	for t := 0; t < opTrials; t++ {
		if r := trial(rowB); r > row {
			row = r
		}
		if c := trial(colB); c > col {
			col = c
		}
	}
	return row, col
}

// opInstr carries the observability instruments the instrumented
// measurement applies per batch — the same bundle the engine applies per
// task (internal/engine/metrics.go): counters, the e2e latency
// histogram, and a full lifecycle trace through the tracer's ring.
type opInstr struct {
	tracer       *obs.Tracer
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	tuplesOut    *obs.Counter
	tasksCreated *obs.Counter
	tasksCPU     *obs.Counter
	latencyNs    *obs.Counter
	latencyN     *obs.Counter
	seq          int64
}

func newOpInstr(reg *obs.Registry, op string) *opInstr {
	n := func(suffix string) *obs.Counter {
		return reg.Counter("saber.bench.ops." + op + "." + suffix)
	}
	return &opInstr{
		tracer:       obs.NewTracer(reg, 0),
		bytesIn:      n("bytes.in"),
		bytesOut:     n("bytes.out"),
		tuplesOut:    n("tuples.out"),
		tasksCreated: n("tasks.created"),
		tasksCPU:     n("tasks.cpu"),
		latencyNs:    n("latency.sum.ns"),
		latencyN:     n("latency.count"),
	}
}

// measureOpPair measures the kernel bare and with the engine's per-task
// observability bundle applied once per batch: ingest
// counters and trace begin, queue/exec stage stamps, delivery mark,
// output counters, latency accumulation and trace finish (histogram
// observes + postmortem ring write). Bare and instrumented trials are
// interleaved so each pair runs in the same host-speed regime — on a
// shared or frequency-scaled host the absolute rate drifts far more
// between two measurement blocks than the instrumentation costs, and a
// paired best-of keeps that drift out of the overhead ratio. Returns
// millions of input tuples/s for both variants, plus the overhead in
// percent as the median over the paired trials — the median discards
// both a noise spike in an instrumented half (which would inflate a
// max-based ratio) and one in a bare half (which would deflate it).
func measureOpPair(q *query.Query, streams [2][]byte, in *opInstr) (bare, instr, overheadPct float64) {
	p, err := exec.Compile(q)
	if err != nil {
		panic(fmt.Sprintf("operators: compile %s: %v", q.Name, err))
	}
	var batches [2]exec.Batch
	tuples, inBytes := 0, 0
	for i := 0; i < p.NumInputs(); i++ {
		batches[i] = exec.Batch{Data: streams[i], Ctx: window.Context{PrevTimestamp: window.NoPrev}}
		tuples += len(streams[i]) / p.InputSchema(i).TupleSize()
		inBytes += len(streams[i])
	}
	osz := p.OutputSchema().TupleSize()
	iterBare := func() {
		res := p.NewResult()
		if err := p.Process(batches, res); err != nil {
			panic(err)
		}
		p.ReleaseResult(res)
	}
	iterInstr := func() {
		created := time.Now().UnixNano()
		in.seq++
		tr := in.tracer.Begin(0, in.seq, created)
		in.bytesIn.Add(int64(inBytes))
		in.tasksCreated.Inc()
		execStart := time.Now()
		tr.SetStage(obs.StageQueue, time.Duration(execStart.UnixNano()-created))
		res := p.NewResult()
		if err := p.Process(batches, res); err != nil {
			panic(err)
		}
		tr.SetProc(obs.ProcCPU)
		tr.SetStage(obs.StageExecCPU, time.Since(execStart))
		in.tasksCPU.Inc()
		in.bytesOut.Add(int64(len(res.Stream)))
		in.tuplesOut.Add(int64(len(res.Stream) / osz))
		p.ReleaseResult(res)
		now := time.Now().UnixNano()
		tr.MarkDelivered(now)
		in.latencyNs.Add(now - created)
		in.latencyN.Inc()
		in.tracer.Finish(tr, now, false)
	}
	iterBare()
	iterInstr()
	debug.FreeOSMemory() // as in measureOpColPair: keep sweep debt out of the trials
	const minWall = 8 * time.Millisecond
	trial := func(iter func()) float64 {
		n := 0
		start := time.Now()
		var elapsed time.Duration
		for {
			iter()
			n++
			if elapsed = time.Since(start); elapsed >= minWall && n >= 2 {
				break
			}
		}
		return float64(tuples) * float64(n) / elapsed.Seconds() / 1e6
	}
	overs := make([]float64, 0, opTrials)
	for t := 0; t < opTrials; t++ {
		b := trial(iterBare)
		m := trial(iterInstr)
		if b > bare {
			bare = b
		}
		if m > instr {
			instr = m
		}
		overs = append(overs, (b-m)/b*100)
	}
	sort.Float64s(overs)
	overheadPct = math.Max(0, overs[len(overs)/2])
	return bare, instr, overheadPct
}

func operators(o Options) Report {
	o = o.WithDefaults()
	const batchTuples = 4096
	syn := synStream(42, 64, batchTuples*workload.SynTupleSize)
	synB := synStream(43, 64, batchTuples*workload.SynTupleSize)

	thetaJoin := query.NewBuilder("JOIN-THETA").
		FromAs("SynA", "A", workload.SynSchema, window.NewCount(128, 128)).
		FromAs("SynB", "B", workload.SynSchema, window.NewCount(128, 128)).
		Join(expr.Cmp{Op: expr.Lt, Left: expr.QCol("A", "a3"), Right: expr.QCol("B", "a3")}).
		MustBuild()

	cases := []struct {
		name    string
		q       *query.Query
		streams [2][]byte
	}{
		{"selection", workload.Select(2, window.NewCount(1024, 1024)), [2][]byte{syn, nil}},
		{"projection", workload.Proj(3, 1, window.NewCount(1024, 1024)), [2][]byte{syn, nil}},
		{"agg-scalar-prefix", workload.Agg(query.Sum, window.NewCount(512, 64)), [2][]byte{syn, nil}},
		{"agg-scalar-direct", workload.Agg(query.Max, window.NewCount(512, 64)), [2][]byte{syn, nil}},
		{"agg-grouped", workload.GroupBy([]query.AggFunc{query.Sum, query.Count}, 64, window.NewCount(512, 64)), [2][]byte{syn, nil}},
		{"join-equi", workload.Join(1, window.NewCount(256, 256)), [2][]byte{syn, synB}},
		{"join-theta", thetaJoin, [2][]byte{syn, synB}},
	}

	rep := Report{
		ID:     "operators",
		Title:  "CPU operator kernels: row vs columnar batches, metrics overhead (native speed, Mt/s)",
		Header: []string{"operator", "bare Mt/s", "columnar Mt/s", "col/row", "metrics-on Mt/s", "overhead %"},
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	js := opsReport{TupleBytes: workload.SynTupleSize, BatchTuples: batchTuples}
	geomean, measured := 0.0, 0
	for _, c := range cases {
		rowV, col := measureOpColPair(c.q, c.streams)
		v, m, over := measureOpPair(c.q, c.streams, newOpInstr(reg, c.name))
		rep.Rows = append(rep.Rows, []string{c.name, f1(v), f1(col), f2(col / rowV), f1(m), f2(over)})
		js.Operators = append(js.Operators, opResult{
			Name: c.name, VectorizedMtps: round2(v),
			ColumnarMtps: round2(col), ColumnarVsRow: round2(col / rowV),
			MetricsOnMtps: round2(m), MetricsOverheadPct: round2(over),
		})
		geomean += math.Log1p(over)
		measured++
	}
	if measured > 0 {
		js.MetricsOverheadPct = round2(math.Expm1(geomean / float64(measured)))
	}
	js.Metrics = reg.Snapshot()

	if buf, err := json.MarshalIndent(js, "", "  "); err == nil {
		if werr := os.WriteFile(operatorsJSONPath, append(buf, '\n'), 0o644); werr != nil {
			rep.Notes = append(rep.Notes, "could not write "+operatorsJSONPath+": "+werr.Error())
		} else {
			rep.Notes = append(rep.Notes, "machine-readable twin written to "+operatorsJSONPath)
		}
	}
	rep.Notes = append(rep.Notes,
		"native-speed Plan.Process over one pinned batch; no model padding, so numbers are host-dependent — compare the col/row ratio and overhead, not absolutes")
	return rep
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
