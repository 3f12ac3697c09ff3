package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"saber/internal/exec"
	"saber/internal/expr"
	"saber/internal/fault"
	"saber/internal/model"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

var syn = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "a", Type: schema.Float32},
	schema.Field{Name: "b", Type: schema.Int32},
	schema.Field{Name: "c", Type: schema.Int32},
)

func genStream(n int, seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	b := schema.NewTupleBuilder(syn, n)
	for i := 0; i < n; i++ {
		b.Begin().
			Timestamp(int64(i)).
			Float32("a", float32(rnd.Intn(1000))/10).
			Int32("b", int32(rnd.Intn(8))).
			Int32("c", int32(rnd.Intn(50)))
	}
	return b.Bytes()
}

// fastDevice opens a device whose modelled times are negligible, so
// correctness tests run quickly.
func fastDevice(t *testing.T) *Device {
	t.Helper()
	d := Open(Config{Model: model.Default().Scaled(1e-6)})
	t.Cleanup(d.Close)
	return d
}

// runBoth executes the plan over the stream twice — CPU path and GPU
// program — and returns both assembled outputs. Both run the same batch
// operator function, so a difference is the pipeline's: the input
// snapshot, slot reuse or the in-place result write.
func runBoth(t *testing.T, d *Device, p *exec.Plan, streams [2][]byte, batchTuples int) (cpu, gpu []byte) {
	t.Helper()
	prog := d.Compile(p)
	for _, mode := range []string{"cpu", "gpu"} {
		asm := exec.NewAssembler(p)
		var out []byte
		var pos [2]int
		prevTS := [2]int64{window.NoPrev, window.NoPrev}
		more := func() bool {
			for i := 0; i < p.NumInputs(); i++ {
				if pos[i]*p.InputSchema(i).TupleSize() < len(streams[i]) {
					return true
				}
			}
			return false
		}
		for more() {
			var in [2]exec.Batch
			for i := 0; i < p.NumInputs(); i++ {
				s := p.InputSchema(i)
				tsz := s.TupleSize()
				total := len(streams[i]) / tsz
				n := batchTuples
				if pos[i]+n > total {
					n = total - pos[i]
				}
				data := streams[i][pos[i]*tsz : (pos[i]+n)*tsz]
				in[i] = exec.Batch{Data: data, Ctx: window.Context{
					FirstIndex:    int64(pos[i]),
					PrevTimestamp: prevTS[i],
				}}
				if n > 0 {
					prevTS[i] = s.Timestamp(data[(n-1)*tsz:])
				}
				pos[i] += n
			}
			res := p.NewResult()
			if mode == "cpu" {
				if err := p.Process(in, res); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := prog.Run(in, res); err != nil {
					t.Fatal(err)
				}
			}
			out = asm.Drain(res, out)
			p.ReleaseResult(res)
		}
		out = asm.Flush(out)
		if mode == "cpu" {
			cpu = out
		} else {
			gpu = out
		}
	}
	return cpu, gpu
}

func mustCompile(t *testing.T, q *query.Query) *exec.Plan {
	t.Helper()
	p, err := exec.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMapKernelMatchesCPU(t *testing.T) {
	d := fastDevice(t)
	q := query.NewBuilder("sel").
		From("S", syn, window.NewCount(8, 8)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(4)}).
		Select("timestamp", "b").
		SelectAs(expr.Arith{Op: expr.Mul, Left: expr.Col("a"), Right: expr.FloatConst(2)}, "a2").
		MustBuild()
	p := mustCompile(t, q)
	stream := genStream(500, 1)
	for _, batch := range []int{33, 128, 500} {
		cpu, gpu := runBoth(t, d, p, [2][]byte{stream, nil}, batch)
		if string(cpu) != string(gpu) {
			t.Fatalf("batch %d: GPU selection output differs (%d vs %d bytes)", batch, len(gpu), len(cpu))
		}
	}
}

func TestMapKernelEmptyAndAllPass(t *testing.T) {
	d := fastDevice(t)
	qAll := query.NewBuilder("all").From("S", syn, window.NewCount(4, 4)).MustBuild()
	pAll := mustCompile(t, qAll)
	stream := genStream(64, 2)
	cpu, gpu := runBoth(t, d, pAll, [2][]byte{stream, nil}, 10)
	if string(cpu) != string(gpu) || len(gpu) != len(stream) {
		t.Fatal("identity mismatch")
	}
	qNone := query.NewBuilder("none").
		From("S", syn, window.NewCount(4, 4)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(-1)}).
		MustBuild()
	pNone := mustCompile(t, qNone)
	cpu, gpu = runBoth(t, d, pNone, [2][]byte{stream, nil}, 10)
	if len(cpu) != 0 || len(gpu) != 0 {
		t.Fatal("all-filtered mismatch")
	}
}

// TestNoStaleStreamAcrossJobs: with one pipeline slot, an aggregate job
// reuses the slot a map job just held; its result must be exactly what
// the batch operator function gives on the host, with none of the map's
// output in its Stream.
func TestNoStaleStreamAcrossJobs(t *testing.T) {
	d := Open(Config{PipelineDepth: 1, Model: model.Default().Scaled(1e-6)})
	t.Cleanup(d.Close)
	mapPlan := mustCompile(t, query.NewBuilder("map").From("S", syn, window.NewCount(8, 8)).MustBuild())
	aggPlan := mustCompile(t, query.NewBuilder("agg").
		From("S", syn, window.NewCount(16, 8)).
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild())
	in := [2]exec.Batch{{Data: genStream(64, 9), Ctx: window.Context{PrevTimestamp: window.NoPrev}}}

	res := mapPlan.NewResult()
	if err := d.Compile(mapPlan).Run(in, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Stream) == 0 {
		t.Fatal("map job produced no output; the test needs a non-empty stream")
	}
	mapPlan.ReleaseResult(res)

	want := aggPlan.NewResult()
	if err := aggPlan.Process(in, want); err != nil {
		t.Fatal(err)
	}
	if len(want.Stream) == 0 || len(want.Partials) == 0 {
		t.Fatalf("host run gave %d stream bytes and %d partials; the test needs both", len(want.Stream), len(want.Partials))
	}
	res = aggPlan.NewResult()
	if err := d.Compile(aggPlan).Run(in, res); err != nil {
		t.Fatal(err)
	}
	if string(res.Stream) != string(want.Stream) {
		t.Fatalf("aggregate job's Stream has %d bytes, the host run %d: stale device output from the previous job", len(res.Stream), len(want.Stream))
	}
	if len(res.Partials) != len(want.Partials) {
		t.Fatalf("aggregate job produced %d partials, the host run %d", len(res.Partials), len(want.Partials))
	}
	aggPlan.ReleaseResult(res)
	aggPlan.ReleaseResult(want)
}

// rowsAsSet normalises rows for order-insensitive comparison with small
// float tolerance via formatting.
func rowsAsSet(p *exec.Plan, out []byte) []string {
	s := p.OutputSchema()
	osz := s.TupleSize()
	var rows []string
	for i := 0; i+osz <= len(out); i += osz {
		var b []byte
		for f := 0; f < s.NumFields(); f++ {
			b = fmt.Appendf(b, "%s=%.3f;", s.Field(f).Name, s.ReadFloat(out[i:i+osz], f))
		}
		rows = append(rows, string(b))
	}
	sort.Strings(rows)
	return rows
}

func TestAggScalarKernelMatchesCPU(t *testing.T) {
	d := fastDevice(t)
	for _, w := range []window.Def{window.NewCount(16, 16), window.NewCount(32, 8), window.NewTime(20, 5)} {
		q := query.NewBuilder("agg").
			From("S", syn, w).
			Aggregate(query.Sum, expr.Col("a"), "s").
			Aggregate(query.Count, nil, "n").
			Aggregate(query.Min, expr.Col("a"), "lo").
			Aggregate(query.Max, expr.Col("a"), "hi").
			MustBuild()
		p := mustCompile(t, q)
		stream := genStream(300, 3)
		cpu, gpu := runBoth(t, d, p, [2][]byte{stream, nil}, 47)
		cr, gr := rowsAsSet(p, cpu), rowsAsSet(p, gpu)
		if len(cr) != len(gr) {
			t.Fatalf("%v: rows %d vs %d", w, len(cr), len(gr))
		}
		for i := range cr {
			if cr[i] != gr[i] {
				t.Fatalf("%v row %d:\n cpu %s\n gpu %s", w, i, cr[i], gr[i])
			}
		}
	}
}

func TestAggGroupedKernelMatchesCPU(t *testing.T) {
	d := fastDevice(t)
	for _, w := range []window.Def{window.NewCount(25, 25), window.NewCount(40, 10)} {
		q := query.NewBuilder("grp").
			From("S", syn, w).
			Where(expr.Cmp{Op: expr.Gt, Left: expr.Col("a"), Right: expr.FloatConst(5)}).
			Aggregate(query.Avg, expr.Col("a"), "m").
			Aggregate(query.Count, nil, "n").
			GroupBy("b").
			MustBuild()
		p := mustCompile(t, q)
		stream := genStream(400, 4)
		cpu, gpu := runBoth(t, d, p, [2][]byte{stream, nil}, 61)
		cr, gr := rowsAsSet(p, cpu), rowsAsSet(p, gpu)
		if len(cr) != len(gr) {
			t.Fatalf("%v: rows %d vs %d", w, len(cr), len(gr))
		}
		for i := range cr {
			if cr[i] != gr[i] {
				t.Fatalf("%v row %d:\n cpu %s\n gpu %s", w, i, cr[i], gr[i])
			}
		}
	}
}

// TestAggGroupedManyGroupsSpill gives one window 3000 distinct groups,
// more than the grouped table's initial capacity, so the table grows
// mid-task on the device; every group must come back, with the row the
// host computes.
func TestAggGroupedManyGroupsSpill(t *testing.T) {
	d := fastDevice(t)
	wide := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "g", Type: schema.Int32},
	)
	n := 3000
	b := schema.NewTupleBuilder(wide, n)
	for i := 0; i < n; i++ {
		b.Begin().Timestamp(int64(i)).Int32("g", int32(i)) // all distinct
	}
	q := query.NewBuilder("spill").
		From("S", wide, window.NewCount(int64(n), int64(n))).
		CountAll("n").
		GroupBy("g").
		MustBuild()
	p := mustCompile(t, q)
	cpu, gpu := runBoth(t, d, p, [2][]byte{b.Bytes(), nil}, n)
	if len(cpu) != len(gpu) || len(cpu)/p.OutputSchema().TupleSize() != n {
		t.Fatalf("groups lost: cpu %d gpu %d bytes, want %d rows", len(cpu), len(gpu), n)
	}
	cr, gr := rowsAsSet(p, cpu), rowsAsSet(p, gpu)
	for i := range cr {
		if cr[i] != gr[i] {
			t.Fatalf("row %d:\n cpu %s\n gpu %s", i, cr[i], gr[i])
		}
	}
}

func TestJoinKernelMatchesCPU(t *testing.T) {
	d := fastDevice(t)
	right := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "w", Type: schema.Int32},
	)
	lb := schema.NewTupleBuilder(syn, 128)
	rb := schema.NewTupleBuilder(right, 128)
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 128; i++ {
		lb.Begin().Timestamp(int64(i)).Int32("b", int32(rnd.Intn(4)))
		rb.Begin().Timestamp(int64(i)).Int32("w", int32(rnd.Intn(4)))
	}
	q := query.NewBuilder("join").
		FromAs("L", "L", syn, window.NewCount(16, 16)).
		FromAs("R", "R", right, window.NewCount(16, 16)).
		Join(expr.Cmp{Op: expr.Eq, Left: expr.Col("b"), Right: expr.Col("w")}).
		MustBuild()
	p := mustCompile(t, q)
	for _, batch := range []int{5, 16, 128} {
		cpu, gpu := runBoth(t, d, p, [2][]byte{lb.Bytes(), rb.Bytes()}, batch)
		if string(cpu) != string(gpu) {
			t.Fatalf("batch %d: join output differs (%d vs %d bytes)", batch, len(cpu), len(gpu))
		}
	}
}

// TestPipelineOverlap parks the first task in the execute stage (an
// injected device hang) and checks where the next task gets meanwhile. At
// depth 4 it passes copy-in and move-in and queues at the execute stage's
// input; at depth 1 the parked task holds the only buffer slot, so the next
// task cannot even be staged. Nothing is timed: the hang only bounds how
// long the depth-4 wait may take.
func TestPipelineOverlap(t *testing.T) {
	const hang = 500 * time.Millisecond
	q := query.NewBuilder("id").From("S", syn, window.NewCount(8, 8)).MustBuild()
	p := mustCompile(t, q)
	stream := genStream(64, 7)
	batch := func(i int) [2]exec.Batch {
		return [2]exec.Batch{{Data: stream, Ctx: window.Context{FirstIndex: int64(i * 64), PrevTimestamp: int64(i*64 - 1)}}, {}}
	}
	for _, depth := range []int{1, 4} {
		inj := fault.New(1)
		inj.Arm(fault.GPUHang, fault.Spec{Rate: 1, Limit: 1, Delay: hang})
		d := Open(Config{PipelineDepth: depth, Model: model.Default().Scaled(1e-6), Fault: inj})
		prog := d.Compile(p)
		res := [2]*exec.TaskResult{p.NewResult(), p.NewResult()}
		first := prog.Submit(batch(0), res[0], nil)
		waitFor(t, "first task parked in execute", func() bool { return d.Hangs() == 1 })
		second := make(chan (<-chan error), 1)
		go func() { second <- prog.Submit(batch(1), res[1], nil) }()
		if depth > 1 {
			waitFor(t, "second task queued for execute", func() bool { return len(d.pipe.cExec) == 1 })
			select {
			case <-first:
				t.Fatalf("depth %d: the parked task left before the next one moved in", depth)
			default:
			}
		} else if free, busy := len(d.pipe.slots), d.inflight.Load(); free != 0 || busy != 1 || len(d.pipe.cExec) != 0 {
			t.Fatalf("depth 1: next task admitted beside the parked one (free slots %d, in flight %d)", free, busy)
		}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if err := <-<-second; err != nil {
			t.Fatal(err)
		}
		d.Close()
		p.ReleaseResult(res[0])
		p.ReleaseResult(res[1])
	}
}

// waitFor polls cond until it holds, failing after a generous deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", what)
		}
	}
}

func TestDeviceTelemetryAndClose(t *testing.T) {
	d := Open(Config{Model: model.Default().Scaled(1e-6)})
	q := query.NewBuilder("id").From("S", syn, window.NewCount(8, 8)).MustBuild()
	p := mustCompile(t, q)
	prog := d.Compile(p)
	res := p.NewResult()
	stream := genStream(100, 8)
	if err := prog.Run([2]exec.Batch{{Data: stream, Ctx: window.Context{PrevTimestamp: window.NoPrev}}, {}}, res); err != nil {
		t.Fatal(err)
	}
	if d.TasksCompleted() != 1 || d.BytesMoved() == 0 {
		t.Fatalf("telemetry: tasks=%d bytes=%d", d.TasksCompleted(), d.BytesMoved())
	}
	if d.String() == "" {
		t.Error("String empty")
	}
	d.Close()
	d.Close() // idempotent
}

// TestConcurrentSubmittersMatchHost: four callers share one compiled
// grouped-aggregate program on a depth-4 device, so their jobs occupy the
// pipeline's slots together; each job's result must be what the batch
// operator function gives on the host for the same batch.
func TestConcurrentSubmittersMatchHost(t *testing.T) {
	d := fastDevice(t)
	p := mustCompile(t, query.NewBuilder("agg").
		From("S", syn, window.NewCount(16, 8)).
		Aggregate(query.Count, nil, "n").
		GroupBy("b").
		MustBuild())
	prog := d.Compile(p)
	const callers, jobs, batchTuples = 4, 8, 100
	stream := genStream(callers*jobs*batchTuples, 9)
	tsz := syn.TupleSize()
	batch := func(k int) [2]exec.Batch {
		prev := int64(k*batchTuples - 1)
		if k == 0 {
			prev = window.NoPrev
		}
		data := stream[k*batchTuples*tsz : (k+1)*batchTuples*tsz]
		return [2]exec.Batch{{Data: data, Ctx: window.Context{FirstIndex: int64(k * batchTuples), PrevTimestamp: prev}}, {}}
	}
	same := func(got, want *exec.TaskResult) bool {
		if string(got.Stream) != string(want.Stream) || len(got.Partials) != len(want.Partials) {
			return false
		}
		for i, g := range got.Partials {
			w := want.Partials[i]
			if g.Window != w.Window || g.OpenedHere != w.OpenedHere || g.ClosedHere != w.ClosedHere || g.Table.Len() != w.Table.Len() {
				return false
			}
		}
		return true
	}
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				k := c*jobs + j
				want, got := p.NewResult(), p.NewResult()
				if err := p.Process(batch(k), want); err != nil {
					errs <- err
					return
				}
				if err := prog.Run(batch(k), got); err != nil {
					errs <- err
					return
				}
				if !same(got, want) {
					errs <- fmt.Errorf("batch %d: device gave %d stream bytes and %d partials, the host %d and %d",
						k, len(got.Stream), len(got.Partials), len(want.Stream), len(want.Partials))
					return
				}
				p.ReleaseResult(want)
				p.ReleaseResult(got)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := d.TasksCompleted(); n != callers*jobs {
		t.Fatalf("device completed %d tasks, want %d", n, callers*jobs)
	}
}

// TestUDFKernelMatchesCPU runs a single-input UDF (windowed value
// histogram) on both paths.
func TestUDFKernelMatchesCPU(t *testing.T) {
	d := fastDevice(t)
	out := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "sum", Type: schema.Float64},
	)
	udf := &query.UDF{
		Name: "sumBlob",
		Out:  out,
		ProcessFragment: func(in [][]byte) []byte {
			var s float64
			var maxTS int64 = math.MinInt64
			n := len(in[0]) / syn.TupleSize()
			for i := 0; i < n; i++ {
				tu := syn.TupleAt(in[0], i)
				s += float64(syn.ReadFloat32(tu, 1))
				if ts := syn.Timestamp(tu); ts > maxTS {
					maxTS = ts
				}
			}
			b := make([]byte, 16)
			binary.LittleEndian.PutUint64(b, uint64(maxTS))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s))
			return b
		},
		Merge: func(acc, next []byte) []byte {
			if len(acc) == 0 {
				return next
			}
			if len(next) == 0 {
				return acc
			}
			at := int64(binary.LittleEndian.Uint64(acc))
			nt := int64(binary.LittleEndian.Uint64(next))
			if nt > at {
				binary.LittleEndian.PutUint64(acc, uint64(nt))
			}
			s := math.Float64frombits(binary.LittleEndian.Uint64(acc[8:])) +
				math.Float64frombits(binary.LittleEndian.Uint64(next[8:]))
			binary.LittleEndian.PutUint64(acc[8:], math.Float64bits(s))
			return acc
		},
		Finalize: func(partial []byte) []byte {
			row := make([]byte, out.TupleSize())
			out.SetTimestamp(row, int64(binary.LittleEndian.Uint64(partial)))
			out.WriteFloat64(row, 1, math.Float64frombits(binary.LittleEndian.Uint64(partial[8:])))
			return row
		},
	}
	q := query.NewBuilder("udf").
		From("S", syn, window.NewCount(40, 20)).
		UDF(udf).
		MustBuild()
	p := mustCompile(t, q)
	stream := genStream(400, 9)
	cpu, gpu := runBoth(t, d, p, [2][]byte{stream, nil}, 57)
	if string(cpu) != string(gpu) {
		t.Fatalf("UDF kernel output differs: %d vs %d bytes", len(cpu), len(gpu))
	}
	if len(cpu) == 0 {
		t.Fatal("no UDF output")
	}
}
