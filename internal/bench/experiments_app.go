package bench

import (
	"fmt"
	"time"

	"saber/internal/engine"

	"saber/internal/baseline/columnar"
	"saber/internal/baseline/microbatch"
	"saber/internal/baseline/syncengine"
	"saber/internal/exec"
	"saber/internal/model"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
	"saber/internal/workload"
)

func init() {
	register("fig01", "Spark-like micro-batch GROUP-BY vs window slide", fig01)
	register("tab01", "Table 1: datasets and query catalogue", tab01)
	register("fig07", "Application benchmarks: SABER (with GPGPU split) vs Esper-like", fig07)
	register("fig09", "CM1/CM2/SG1: SABER vs Spark-like micro-batching", fig09)
	register("mdb", "§6.2 θ-join comparison vs MonetDB-like column store", mdb)
}

// fig01 reproduces Fig. 1: a streaming GROUP-BY on a Spark-Streaming-like
// engine whose batch size is tied to the window slide.
func fig01(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig01",
		Title:  "Micro-batch GROUP-BY, 5 s window, varying slide (10^6 tuples/s)",
		Header: []string{"slide-tuples", "throughput-Mt/s"},
		Notes:  []string{"expect: throughput collapses as the slide (== batch) shrinks"},
	}
	s := workload.SynSchema
	// The baseline pays its modelled costs at scale 1: they are orders of
	// magnitude above real compute, so measurements are already
	// paper-equivalent.
	cfg := microbatch.Defaults()
	cfg.Model = model.Default()
	const windowTuples = 4 << 20 // ≈5 s of ingest in the paper's setting
	for _, slide := range []int{1 << 16, 1 << 18, 1 << 20, 1 << 22} {
		g := workload.NewSynGen(11)
		g.Groups = 64
		data := g.Next(nil, slide*3)
		wb := windowTuples / slide
		if wb < 1 {
			wb = 1
		}
		e := microbatch.New(cfg, microbatch.Query{
			Schema:        s,
			GroupKey:      func(tu []byte) int64 { return int64(s.ReadInt32(tu, 2)) },
			AggArg:        func(tu []byte) float64 { return float64(s.ReadFloat32(tu, 1)) },
			BatchTuples:   slide,
			WindowBatches: wb,
		})
		start := time.Now()
		e.Process(data)
		e.Flush()
		rate := float64(e.TuplesIn) / time.Since(start).Seconds() / 1e6
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", slide), f3(rate)})
	}
	return rep
}

// tab01 regenerates Table 1 as a live catalogue: every workload query is
// compiled and smoke-run.
func tab01(o Options) Report {
	rep := Report{
		ID:     "tab01",
		Title:  "Datasets and queries",
		Header: []string{"dataset", "query", "windows", "operators", "output"},
	}
	w := window.NewCount(w32KB, w32KB)
	entries := []struct {
		dataset string
		q       *query.Query
	}{
		{"Synthetic", workload.Proj(4, 1, w)},
		{"Synthetic", workload.Select(16, w)},
		{"Synthetic", workload.Agg(query.Avg, w)},
		{"Synthetic", workload.GroupBy([]query.AggFunc{query.Count, query.Sum}, 8, w)},
		{"Synthetic", workload.Join(1, window.NewCount(w4KB, w4KB))},
		{"Cluster Monitoring", workload.CM1()},
		{"Cluster Monitoring", workload.CM2()},
		{"Smart Grid", workload.SG1(1)},
		{"Smart Grid", workload.SG2(1)},
		{"Smart Grid", workload.SG3Join()},
		{"Linear Road", workload.LRB1()},
		{"Linear Road", workload.LRB2()},
		{"Linear Road", workload.LRB3()},
		{"Linear Road", workload.LRB4()},
	}
	for _, e := range entries {
		p, err := exec.Compile(e.q)
		status := "ok"
		if err != nil {
			status = "COMPILE ERROR: " + err.Error()
		}
		wins := e.q.Inputs[0].Window.String()
		ops := ""
		if p != nil {
			ops = p.Kind.String()
			if e.q.Where != nil {
				ops = "σ+" + ops
			}
			if len(e.q.GroupBy) > 0 {
				ops += "+γ"
			}
			if e.q.Having != nil {
				ops += "+having"
			}
			if e.q.Distinct {
				ops += "+distinct"
			}
		}
		out := status
		if err == nil {
			out = e.q.OutputSchema().String()
			if len(out) > 48 {
				out = out[:45] + "..."
			}
		}
		rep.Rows = append(rep.Rows, []string{e.dataset, e.q.Name, wins, ops, out})
	}
	return rep
}

// derive runs a query over pre-generated input (untimed) to produce the
// derived streams the chained application queries consume (SegSpeedStr,
// LocalLoadStr, GlobalLoadStr).
func derive(q *query.Query, streams [2][]byte, batchTuples int) []byte {
	p, err := exec.Compile(q)
	if err != nil {
		panic(err)
	}
	asm := exec.NewAssembler(p)
	var out []byte
	var pos [2]int
	prevTS := [2]int64{window.NoPrev, window.NoPrev}
	for {
		progressed := false
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
				pos[i] += n
				progressed = true
			}
		}
		if !progressed {
			break
		}
		res := p.NewResult()
		if err := p.Process(in, res); err != nil {
			panic(err)
		}
		out = asm.Drain(res, out)
		p.ReleaseResult(res)
	}
	return asm.Flush(out)
}

// fig07 measures the application queries on SABER (hybrid, reporting the
// GPGPU's task share) against the Esper-like globally synchronised
// baseline.
func fig07(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig07",
		Title:  "Application benchmarks (paper-equivalent 10^6 tuples/s)",
		Header: []string{"query", "saber-Mt/s", "gpu-share", "esper-Mt/s"},
		Notes: []string{
			"expect: SABER ≈ two orders of magnitude above the Esper-like baseline",
			"expect: CM2 leans on the GPGPU; SG1/LRB1 mostly CPU; SG2/LRB3 split",
		},
	}

	vol := (o.MB << 20) / 2
	cmStream := workload.NewCMGen(21).Next(nil, vol/workload.CMSchema.TupleSize())
	sgGen := workload.NewSGGen(22)
	sgStream := sgGen.Next(nil, vol/workload.SGSchema.TupleSize())
	lrbStream := workload.NewLRBGen(23, 500).Next(nil, vol/workload.LRBSchema.TupleSize())
	segStream := derive(workload.LRB1(), [2][]byte{lrbStream, nil}, 8192)

	// SG windows scaled (3600 → 120 time units) to bound the GPGPU's
	// non-incremental recompute on this host; see EXPERIMENTS.md.
	const sgScale = 30
	localStream := derive(workload.SG2(sgScale), [2][]byte{sgStream, nil}, 8192)
	globalStream := derive(workload.SG1(sgScale), [2][]byte{sgStream, nil}, 8192)

	cases := []struct {
		q       *query.Query
		streams [2][]byte
	}{
		{workload.CM1(), [2][]byte{cmStream, nil}},
		{workload.CM2(), [2][]byte{cmStream, nil}},
		{workload.SG1(sgScale), [2][]byte{sgStream, nil}},
		{workload.SG2(sgScale), [2][]byte{sgStream, nil}},
		{workload.SG3Join(), [2][]byte{localStream, globalStream}},
		{workload.LRB1(), [2][]byte{lrbStream, nil}},
		{workload.LRB2(), [2][]byte{segStream, nil}},
		{workload.LRB3(), [2][]byte{segStream, nil}},
		{workload.LRB4(), [2][]byte{segStream, nil}},
	}
	esperCfg := syncengine.Defaults() // scale-1 costs: already paper-equivalent
	for _, c := range cases {
		rs := run(runSpec{
			opts:    o,
			queries: []*query.Query{c.q},
			mode:    modeHybrid,
			cfg:     engine.Config{TaskSize: defaultPhi},
			streams: [][2][]byte{c.streams},
		})

		esper := 0.0
		if c.q.IsJoin() {
			// The Esper-like baseline runs single-input queries; joins are
			// reported for SABER only (as in the paper's figure, Esper's
			// join bars are vanishingly small).
		} else {
			se := syncengine.New(esperCfg)
			if err := se.Register(c.q); err != nil {
				panic(err)
			}
			data := c.streams[0]
			if len(data) > 2<<20 {
				data = data[:2<<20] // the baseline is slow by design
			}
			tsz := c.q.Inputs[0].Schema.TupleSize()
			data = data[:len(data)/tsz*tsz]
			start := time.Now()
			for off := 0; off < len(data); off += 64 * tsz {
				end := off + 64*tsz
				if end > len(data) {
					end = len(data)
				}
				se.Insert(data[off:end])
			}
			se.Flush()
			esper = float64(se.TuplesIn) / time.Since(start).Seconds() / 1e6
		}

		// SABER's tuple rate uses the query's own tuple size.
		tsz := float64(c.q.Inputs[0].Schema.TupleSize())
		saberMt := rs.paperGBps(o) * 1e9 / tsz / 1e6
		rep.Rows = append(rep.Rows, []string{
			c.q.Name, f1(saberMt), f2(rs.GPUShare), f3(esper),
		})
	}
	return rep
}

// fig09 compares SABER against the micro-batch baseline on CM1, CM2 and
// SG1 with tumbling windows (the paper uses 500 ms tumbling windows for
// comparability since Spark lacks count windows).
func fig09(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig09",
		Title:  "SABER vs Spark-like micro-batching, tumbling windows (10^6 tuples/s)",
		Header: []string{"query", "saber-Mt/s", "spark-Mt/s"},
		Notes: []string{
			"expect: SABER several times faster; the gap is Spark's scheduling overhead",
			"the gap exceeds the paper's ~6x because reproduction-volume 500ms batches hold ~2K tuples",
			"where the paper's held millions; the per-batch overhead amortises accordingly",
		},
	}
	vol := (o.MB << 20) / 2
	cmStream := workload.NewCMGen(31).Next(nil, vol/workload.CMSchema.TupleSize())
	sgStream := workload.NewSGGen(32).Next(nil, vol/workload.SGSchema.TupleSize())

	mkTumbling := func(base *query.Query) *query.Query {
		q := *base
		q.Inputs = append([]query.Input(nil), base.Inputs...)
		q.Inputs[0].Window = window.NewTime(32, 32) // ≈500 ms of trace time
		q.Name = base.Name + "-tumbling"
		if err := q.Validate(); err != nil {
			panic(err)
		}
		return &q
	}

	type caseT struct {
		q      *query.Query
		stream []byte
		group  func(s *schema.Schema) func([]byte) int64
		arg    func(s *schema.Schema) func([]byte) float64
		filter func(s *schema.Schema) func([]byte) bool
	}
	cases := []caseT{
		{
			q: mkTumbling(workload.CM1()), stream: cmStream,
			group: func(s *schema.Schema) func([]byte) int64 {
				i := s.IndexOf("category")
				return func(tu []byte) int64 { return int64(s.ReadInt32(tu, i)) }
			},
			arg: func(s *schema.Schema) func([]byte) float64 {
				i := s.IndexOf("cpu")
				return func(tu []byte) float64 { return float64(s.ReadFloat32(tu, i)) }
			},
		},
		{
			q: mkTumbling(workload.CM2()), stream: cmStream,
			group: func(s *schema.Schema) func([]byte) int64 {
				i := s.IndexOf("jobId")
				return func(tu []byte) int64 { return s.ReadInt64(tu, i) }
			},
			arg: func(s *schema.Schema) func([]byte) float64 {
				i := s.IndexOf("cpu")
				return func(tu []byte) float64 { return float64(s.ReadFloat32(tu, i)) }
			},
			filter: func(s *schema.Schema) func([]byte) bool {
				i := s.IndexOf("eventType")
				return func(tu []byte) bool { return s.ReadInt32(tu, i) == 1 }
			},
		},
		{
			q: mkTumbling(workload.SG1(1)), stream: sgStream,
			group: func(s *schema.Schema) func([]byte) int64 {
				return func(tu []byte) int64 { return 0 }
			},
			arg: func(s *schema.Schema) func([]byte) float64 {
				i := s.IndexOf("value")
				return func(tu []byte) float64 { return float64(s.ReadFloat32(tu, i)) }
			},
		},
	}
	sparkCfg := microbatch.Defaults() // scale-1: paper-equivalent directly
	for _, c := range cases {
		rs := run(runSpec{
			opts:    o,
			queries: []*query.Query{c.q},
			mode:    modeHybrid,
			cfg:     engine.Config{TaskSize: defaultPhi},
			streams: [][2][]byte{{c.stream, nil}},
		})
		s := c.q.Inputs[0].Schema
		mq := microbatch.Query{
			Schema:        s,
			GroupKey:      c.group(s),
			AggArg:        c.arg(s),
			BatchTuples:   32 * 64, // one tumbling window per batch
			WindowBatches: 1,
		}
		if c.filter != nil {
			mq.Filter = c.filter(s)
		}
		sp := microbatch.New(sparkCfg, mq)
		data := c.stream
		if len(data) > 4<<20 {
			data = data[:4<<20]
		}
		start := time.Now()
		sp.Process(data)
		sp.Flush()
		sparkMt := float64(sp.TuplesIn) / time.Since(start).Seconds() / 1e6

		tsz := float64(s.TupleSize())
		saberMt := rs.paperGBps(o) * 1e9 / tsz / 1e6
		rep.Rows = append(rep.Rows, []string{c.q.Name, f1(saberMt), f3(sparkMt)})
	}
	return rep
}

// mdb reproduces the §6.2 MonetDB comparison: a θ-join over two tables at
// 1% selectivity, with two output columns and with select *, plus the
// equi-join case.
func mdb(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "mdb",
		Title:  "θ-join vs MonetDB-like column store (relative runtimes)",
		Header: []string{"case", "saber-ms", "monetdb-ms", "ratio"},
		Notes: []string{
			"expect: two-column θ-join comparable; select-* slower on the column store; equi-join much faster there",
		},
	}
	// Tables sized so the quadratic θ-join stays in the milliseconds on
	// this host (the paper uses 1 MB tables on 16 cores).
	const rows = 4096
	mk := func(seed int64) []byte {
		g := workload.NewSynGen(seed)
		g.Groups = 100 // 1% selectivity on equality over a2
		return g.Next(nil, rows)
	}
	aRows, bRows := mk(41), mk(42)
	at := columnar.FromRows(workload.SynSchema, aRows)
	bt := columnar.FromRows(workload.SynSchema, bRows)
	a2 := workload.SynSchema.IndexOf("a2")

	// SABER: the θ-join over one tumbling window covering both tables,
	// at native speed — both engines measure raw wall time here.
	saberJoin := func() time.Duration {
		q := workload.Join(1, window.NewCount(rows, rows))
		eng := engine.New(engine.Config{
			CPUWorkers: o.Workers,
			TaskSize:   rows * 32,
			DisablePad: true,
		})
		h, err := eng.Register(q)
		if err != nil {
			panic(err)
		}
		if err := eng.Start(); err != nil {
			panic(err)
		}
		start := time.Now()
		h.InsertInto(0, aRows)
		h.InsertInto(1, bRows)
		eng.Drain()
		elapsed := time.Since(start)
		eng.Close()
		return elapsed
	}
	saberTime := saberJoin()

	timeIt := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	eq := func(x, y int32) bool { return x == y }
	theta2 := timeIt(func() { columnar.ThetaJoin(at, bt, a2, a2, eq, false, 4) })
	thetaAll := timeIt(func() { columnar.ThetaJoin(at, bt, a2, a2, eq, true, 4) })
	equi := timeIt(func() { columnar.HashEquiJoin(at, bt, a2, a2, 4) })

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	rep.Rows = append(rep.Rows,
		[]string{"θ-join (2 cols)", f2(ms(saberTime)), f2(ms(theta2)), f2(ms(theta2) / ms(saberTime))},
		[]string{"θ-join (select *)", f2(ms(saberTime)), f2(ms(thetaAll)), f2(ms(thetaAll) / ms(saberTime))},
		[]string{"equi-join", f2(ms(saberTime)), f2(ms(equi)), f2(ms(equi) / ms(saberTime))},
	)
	return rep
}
