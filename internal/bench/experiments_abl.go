package bench

import (
	"fmt"
	"time"

	"saber/internal/engine"
	"saber/internal/exec"
	"saber/internal/gpu"
	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

func init() {
	register("abl-lookahead", "Ablation: HLS lookahead vs greedy preferred-only", ablLookahead)
	register("abl-incremental", "Ablation: incremental sliding aggregation vs per-window recompute", ablIncremental)
	register("abl-pipeline", "Ablation: five-stage pipeline vs sequential transfers", ablPipeline)
	register("abl-dispatcher", "Ablation: postponed window computation vs dispatcher-side", ablDispatcher)
}

// ablLookahead runs the Fig. 15 W1 workload under greedy (no delay
// estimation, no switch threshold) and full HLS.
func ablLookahead(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "abl-lookahead",
		Title:  "HLS delay estimation (GB/s, paper-equivalent)",
		Header: []string{"workload", "greedy", "hls"},
		Notes:  []string{"expect: greedy loses the throughput the non-preferred processor could contribute"},
	}
	w1, _, _, _ := fig15Workloads()
	vol := o.MB << 20
	streams := make([][2][]byte, len(w1))
	for i := range w1 {
		streams[i] = [2][]byte{synStream(int64(70+i), 4, vol)}
	}
	measure := func(policy string) float64 {
		rs := run(runSpec{
			opts: o, queries: w1, mode: modeHybrid, streams: streams,
			cfg:        engine.Config{Policy: policy, TaskSize: defaultPhi, MatrixAlpha: 0.5},
			sequential: true,
		})
		return rs.paperGBps(o)
	}
	rep.Rows = append(rep.Rows, []string{"W1", f3(measure("greedy")), f3(measure("hls"))})
	return rep
}

// ablIncremental measures the batch operator function directly (no
// padding): sliding grouped aggregation with the rolling table versus
// per-fragment recompute.
func ablIncremental(o Options) Report {
	rep := Report{
		ID:     "abl-incremental",
		Title:  "Incremental computation, raw batch-operator time (ms per 1MB task)",
		Header: []string{"window", "incremental-ms", "recompute-ms", "speedup"},
		Notes:  []string{"expect: speedup grows with window overlap (size/slide)"},
	}
	stream := synStream(81, 8, 4<<20)
	for _, slide := range []int64{512, 128, 32} {
		q := workload.GroupBy([]query.AggFunc{query.Sum}, 8, window.NewCount(w32KB, slide))
		inc := timeBatchOp(q, stream, true)
		rec := timeBatchOp(q, stream, false)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("ω32KB,%dB", slide*32),
			f2(inc), f2(rec), f2(rec / inc),
		})
	}
	return rep
}

func timeBatchOp(q *query.Query, stream []byte, incremental bool) float64 {
	p, err := exec.Compile(q)
	if err != nil {
		panic(err)
	}
	p.SetIncremental(incremental)
	const taskTuples = 32768 // 1 MB
	tsz := p.InputSchema(0).TupleSize()
	total := len(stream) / tsz
	start := time.Now()
	tasks := 0
	prev := window.NoPrev
	for pos := 0; pos+taskTuples <= total; pos += taskTuples {
		data := stream[pos*tsz : (pos+taskTuples)*tsz]
		res := p.NewResult()
		in := [2]exec.Batch{{Data: data, Ctx: window.Context{
			FirstIndex:    int64(pos),
			PrevTimestamp: prev,
		}}}
		if err := p.Process(in, res); err != nil {
			panic(err)
		}
		p.ReleaseResult(res)
		prev = p.InputSchema(0).Timestamp(data[(taskTuples-1)*tsz:])
		tasks++
	}
	return float64(time.Since(start).Microseconds()) / 1000 / float64(tasks)
}

// ablPipeline pushes a burst of tasks through the GPGPU with pipeline
// depth 4 versus 1 and compares completion time.
func ablPipeline(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "abl-pipeline",
		Title:  "Five-stage pipelining (ms for a 16-task burst)",
		Header: []string{"depth", "burst-ms"},
		Notes:  []string{"expect: depth 4 ≈ the bottleneck stage × tasks; depth 1 ≈ the stage sum × tasks"},
	}
	stream := synStream(82, 0, defaultPhi)
	q := workload.Select(8, window.NewCount(w32KB, w32KB))
	p, err := exec.Compile(q)
	if err != nil {
		panic(err)
	}
	for _, depth := range []int{1, 4} {
		dev := gpu.Open(gpu.Config{PipelineDepth: depth, Model: o.params()})
		prog := dev.Compile(p)
		const burst = 16
		start := time.Now()
		dones := make([]<-chan error, 0, burst)
		results := make([]*exec.TaskResult, 0, burst)
		for i := 0; i < burst; i++ {
			res := p.NewResult()
			results = append(results, res)
			dones = append(dones, prog.Submit([2]exec.Batch{{
				Data: stream,
				Ctx:  window.Context{FirstIndex: int64(i * 8192), PrevTimestamp: int64(i*8192) - 1},
			}, {}}, res, nil))
		}
		for _, d := range dones {
			<-d
		}
		elapsed := time.Since(start)
		for _, r := range results {
			p.ReleaseResult(r)
		}
		dev.Close()
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", depth), f2(float64(elapsed.Microseconds()) / 1000)})
	}
	return rep
}

// ablDispatcher quantifies the postponed-window-computation design: the
// real cost of computing fragment boundaries for a 1 MB task, which SABER
// pays inside parallel tasks instead of in the sequential dispatcher.
func ablDispatcher(o Options) Report {
	o = o.WithDefaults()
	rep := Report{
		ID:     "abl-dispatcher",
		Title:  "Window-boundary computation cost per 1MB task (µs, real)",
		Header: []string{"window", "boundary-µs", "dispatcher-budget-µs"},
		Notes: []string{
			"the dispatcher-budget column is the modelled sequential dispatch time for 1MB;",
			"boundary costs above it would make dispatcher-side window computation the ingest bottleneck",
		},
	}
	stream := synStream(83, 0, 1<<20)
	budget := o.params().DispatchTime(1 << 20)
	for _, slide := range []int64{1024, 64, 1} {
		q := workload.Agg(query.Sum, window.NewCount(w32KB, slide))
		p, err := exec.Compile(q)
		if err != nil {
			panic(err)
		}
		const reps = 16
		start := time.Now()
		for r := 0; r < reps; r++ {
			p.Fragments(nil, 0, len(stream)/32, stream, window.Context{FirstIndex: 0, PrevTimestamp: window.NoPrev})
		}
		per := time.Since(start) / reps
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("ω32KB,%dB", slide*32),
			f1(float64(per.Microseconds())),
			f1(float64(budget.Microseconds())),
		})
	}
	return rep
}
