package bench

import (
	"fmt"

	"saber/internal/engine"
	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

// Window shorthands in tuples for the paper's byte-denominated windows
// over 32-byte tuples.
const (
	w32KB = 1024 // ω32KB
	w4KB  = 128  // ω4KB

	// defaultPhi is the task size for experiments that do not sweep ϕ:
	// 256 KiB keeps enough tasks in flight for HLS to warm up at the
	// benchmark volumes.
	defaultPhi = 256 << 10
)

func init() {
	register("fig08", "Synthetic queries: hybrid vs CPU-only vs GPGPU-only", fig08)
	register("fig10a", "SELECTn throughput vs number of predicates", fig10a)
	register("fig10b", "JOINr throughput vs number of predicates", fig10b)
	register("fig11a", "SELECT10: window slide impact (ω32KB,x)", fig11a)
	register("fig11b", "AGGavg: window slide impact (ω32KB,x)", fig11b)
	register("fig12", "Query task size ϕ: throughput and latency", fig12)
	register("fig13", "Batch/window independence: SELECT1 under three window defs", fig13)
	register("fig14", "CPU operator scalability: PROJ6 vs worker threads", fig14)
}

// threeModes measures a query under hybrid, CPU-only and GPGPU-only.
func threeModes(o Options, q *query.Query, streams [2][]byte, taskSize int) map[mode]runResult {
	out := map[mode]runResult{}
	for _, m := range []mode{modeCPU, modeGPU, modeHybrid} {
		out[m] = run(runSpec{
			opts:    o,
			queries: []*query.Query{q},
			mode:    m,
			cfg:     engine.Config{TaskSize: taskSize},
			streams: [][2][]byte{streams},
		})
	}
	return out
}

func fig08(o Options) Report {
	o = o.WithDefaults()
	w := window.NewCount(w32KB, w32KB)
	aggAll := query.NewBuilder("AGG*").
		From("Syn", workload.SynSchema, w).
		Aggregate(query.Sum, colA1(), "s").
		Aggregate(query.Avg, colA1(), "m").
		Aggregate(query.Min, colA1(), "lo").
		Aggregate(query.Max, colA1(), "hi").
		MustBuild()
	cases := []struct {
		q     *query.Query
		join  bool
		label string
	}{
		{workload.Proj(4, 1, w), false, "PROJ4"},
		{workload.Select(16, w), false, "SELECT16"},
		{aggAll, false, "AGG*"},
		{workload.GroupBy([]query.AggFunc{query.Count, query.Sum}, 8, w), false, "GROUP-BY8"},
		{workload.Join(1, window.NewCount(w4KB, w4KB)), true, "JOIN1"},
	}
	rep := Report{
		ID:     "fig08",
		Title:  "Synthetic queries (GB/s)",
		Header: []string{"query", "cpu-only", "gpu-only", "hybrid"},
		Notes:  []string{"expect: hybrid > max(cpu, gpu) and < cpu+gpu (dispatch/result contention)"},
	}
	for _, c := range cases {
		vol := o.MB << 20
		streams := [2][]byte{synStream(1, 8, vol)}
		if c.join {
			vol /= 8 // joins are quadratic in window size; keep points quick
			streams = [2][]byte{synStream(1, 8, vol), synStream(2, 8, vol)}
		}
		rs := threeModes(o, c.q, streams, defaultPhi)
		rep.Rows = append(rep.Rows, []string{
			c.label, f3(rs[modeCPU].paperGBps(o)), f3(rs[modeGPU].paperGBps(o)), f3(rs[modeHybrid].paperGBps(o)),
		})
	}
	return rep
}

func fig10a(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig10a",
		Title:  "SELECTn with ω32KB,32KB (GB/s)",
		Header: []string{"predicates", "cpu-only", "gpu-only", "hybrid"},
		Notes:  []string{"expect: CPU collapses with n, GPGPU near-flat, crossover in between"},
	}
	stream := [2][]byte{synStream(3, 0, o.MB<<20)}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		q := workload.Select(n, window.NewCount(w32KB, w32KB))
		rs := threeModes(o, q, stream, defaultPhi)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n), f3(rs[modeCPU].paperGBps(o)), f3(rs[modeGPU].paperGBps(o)), f3(rs[modeHybrid].paperGBps(o)),
		})
	}
	return rep
}

func fig10b(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig10b",
		Title:  "JOINr with ω4KB,4KB (GB/s)",
		Header: []string{"predicates", "cpu-only", "gpu-only", "hybrid"},
	}
	vol := (o.MB << 20) / 16
	streams := [2][]byte{synStream(4, 0, vol), synStream(5, 0, vol)}
	for _, r := range []int{1, 2, 4, 8, 16, 32, 64} {
		q := workload.Join(r, window.NewCount(w4KB, w4KB))
		rs := threeModes(o, q, streams, defaultPhi)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", r), f3(rs[modeCPU].paperGBps(o)), f3(rs[modeGPU].paperGBps(o)), f3(rs[modeHybrid].paperGBps(o)),
		})
	}
	return rep
}

func slideSweep(o Options, mk func(slideTuples int64) *query.Query, id, title string, note string) Report {
	rep := Report{
		ID:     id,
		Title:  title,
		Header: []string{"slide", "cpu-only", "gpu-only", "hybrid", "hybrid-latency-ms"},
	}
	if note != "" {
		rep.Notes = append(rep.Notes, note)
	}
	stream := [2][]byte{synStream(6, 0, o.MB<<20)}
	for _, slide := range []int64{1, 16, 64, 256, 1024} { // 32 B … 32 KB
		q := mk(slide)
		rs := threeModes(o, q, stream, defaultPhi)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dB", slide*32),
			f3(rs[modeCPU].paperGBps(o)), f3(rs[modeGPU].paperGBps(o)), f3(rs[modeHybrid].paperGBps(o)),
			f1(rs[modeHybrid].paperLatencyMS(o)),
		})
	}
	return rep
}

func fig11a(o Options) Report {
	o = o.WithDefaults()
	return slideSweep(o, func(slide int64) *query.Query {
		return workload.Select(10, window.NewCount(w32KB, slide))
	}, "fig11a", "SELECT10 with ω32KB,x (GB/s)",
		"expect: slide-invariant (selection keeps no window state)")
}

func fig11b(o Options) Report {
	o = o.WithDefaults()
	if o.MB > 4 {
		o.MB = 4 // small slides make the GPGPU recompute every window
	}
	return slideSweep(o, func(slide int64) *query.Query {
		return workload.Agg(query.Avg, window.NewCount(w32KB, slide))
	}, "fig11b", "AGGavg with ω32KB,x (GB/s)",
		"expect: CPU rises with slide (incremental) to the dispatcher bound; GPGPU rises to the PCIe ceiling")
}

func fig12(o Options) Report {
	o = o.WithDefaults()
	w := window.NewCount(w32KB, w32KB)
	cases := []struct {
		label string
		q     *query.Query
		join  bool
	}{
		{"SELECT10", workload.Select(10, w), false},
		{"AGGavg GROUP-BY64", workload.GroupBy([]query.AggFunc{query.Avg}, 64, w), false},
		{"JOIN4", workload.Join(4, w), true},
	}
	rep := Report{
		ID:     "fig12",
		Title:  "Query task size ϕ (GB/s; hybrid latency ms)",
		Header: []string{"query", "ϕ", "cpu-only", "gpu-only", "hybrid", "latency-ms"},
		Notes: []string{
			"expect: throughput grows with ϕ and plateaus ≈1MB; latency grows with ϕ",
			"expect: GPGPU-only JOIN collapses at large ϕ (host-side window computation)",
		},
	}
	for _, c := range cases {
		vol := o.MB << 20
		streams := [2][]byte{synStream(7, 64, vol)}
		if c.join {
			vol /= 32
			streams = [2][]byte{synStream(7, 64, vol), synStream(8, 64, vol)}
		}
		for _, phi := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			rs := threeModes(o, c.q, streams, phi)
			rep.Rows = append(rep.Rows, []string{
				c.label, fmt.Sprintf("%dKB", phi>>10),
				f3(rs[modeCPU].paperGBps(o)), f3(rs[modeGPU].paperGBps(o)), f3(rs[modeHybrid].paperGBps(o)),
				f1(rs[modeHybrid].paperLatencyMS(o)),
			})
		}
	}
	return rep
}

func fig13(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig13",
		Title:  "SELECT1 under three window definitions vs ϕ (hybrid GB/s)",
		Header: []string{"ϕ", "ω32B,32B", "ω32KB,32B", "ω32KB,32KB"},
		Notes:  []string{"expect: the three columns coincide — ϕ is independent of the window definition"},
	}
	stream := [2][]byte{synStream(9, 0, o.MB<<20)}
	defs := []window.Def{
		window.NewCount(1, 1),
		window.NewCount(w32KB, 1),
		window.NewCount(w32KB, w32KB),
	}
	for _, phi := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		row := []string{fmt.Sprintf("%dKB", phi>>10)}
		for _, d := range defs {
			rs := run(runSpec{
				opts:    o,
				queries: []*query.Query{workload.Select(1, d)},
				mode:    modeHybrid,
				cfg:     engine.Config{TaskSize: phi},
				streams: [][2][]byte{stream},
			})
			row = append(row, f3(rs.paperGBps(o)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

func fig14(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "fig14",
		Title:  "PROJ6 CPU-only throughput vs worker threads (GB/s)",
		Header: []string{"workers", "GB/s"},
		Notes:  []string{"expect: linear scaling to 16 workers, plateau beyond (the paper's core count)"},
	}
	stream := [2][]byte{synStream(10, 0, o.MB<<20)}
	q := workload.Proj(6, 1, window.NewCount(w32KB, w32KB))
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		oo := o
		oo.Workers = workers
		rs := run(runSpec{
			opts:    oo,
			queries: []*query.Query{q},
			mode:    modeCPU,
			cfg:     engine.Config{TaskSize: defaultPhi},
			streams: [][2][]byte{stream},
		})
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", workers), f3(rs.paperGBps(oo))})
	}
	return rep
}

func colA1() expr.Expr { return expr.Col("a1") }
