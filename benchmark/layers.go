package main

import (
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/engine"
	"saber/internal/exec"
	"saber/internal/gpu"
	"saber/internal/ingest"
	"saber/internal/model"
	"saber/internal/ringbuf"
	"saber/internal/sched"
	"saber/internal/task"
	"saber/internal/window"
)

// Isolated replays: the workload's own frames, ϕ and plans pushed through
// one layer's exported functions at a time, single-threaded unless stated,
// with iteration counts fixed by the workload's frozen settings. They give a
// layer's cost with nothing else contending, which is the most a faster
// layer can save end to end.

// replayTuples per input go through the exec, window, assembler and gpu
// replays: 4 MiB of tuples, a whole number of every workload's tasks.
const replayTuples = 1 << 17

// perTuple is elapsed nanoseconds per tuple.
func perTuple(d time.Duration, tuples int64) float64 { return float64(d) / float64(tuples) }

// replayLayers measures every source-B metric of the workload.
func (b *bench) replayLayers(m map[string]float64) error {
	sp := b.sp
	b.pool = genPool(b.seed, sp.groups)
	defer func() { b.pool = nil }()
	ft := b.frameTuples()
	frames := int64(poolTuples / ft)

	// gen: the in-place stamp loop alone, four pool cycles.
	t0 := time.Now()
	for f := int64(0); f < 4*frames; f++ {
		stamp(frameOf(b.pool, 0, ft, f), f*int64(ft))
	}
	m["gen.self_ns_per_tuple"] = perTuple(time.Since(t0), 4*poolTuples)

	// ingest: Client.Send → loopback → Server → a sink that only counts,
	// at the workload's frame size, 2^21 tuples.
	var got atomic.Int64
	srv, err := ingest.Listen("127.0.0.1:0", ingest.SinkFunc(func(d []byte) { got.Add(int64(len(d))) }), tupleSize)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	cli, err := ingest.Dial(srv.Addr().String())
	if err != nil {
		_ = srv.Close()
		<-served
		return err
	}
	const loopTuples = 1 << 21
	t0 = time.Now()
	for f := int64(0); f < loopTuples/int64(ft); f++ {
		if err = cli.Send(frameOf(b.pool, 0, ft, f)); err != nil {
			break
		}
	}
	for err == nil && got.Load() < loopTuples*tupleSize && time.Since(t0) < 20*time.Second {
		time.Sleep(50 * time.Microsecond)
	}
	m["ingest.loop_ns_per_tuple"] = perTuple(time.Since(t0), loopTuples)
	_ = cli.Close()
	_ = srv.Close()
	<-served
	if err != nil {
		return err
	}

	// ringbuf: admit and release the workload's frames on a ring of the
	// engine's default size; shred them into the columns the plan reads.
	ring := ringbuf.MustNew(16 << 20)
	t0 = time.Now()
	for f := int64(0); f < 4*frames; f++ {
		off, _ := ring.TryPut(frameOf(b.pool, 0, ft, f))
		ring.Release(off + int64(sp.frame))
	}
	m["ringbuf.put_ns_per_tuple"] = perTuple(time.Since(t0), 4*poolTuples)

	var plans []*exec.Plan
	t0 = time.Now()
	for _, q := range sp.queries {
		p, err := exec.Compile(q.build())
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	m["compile.us"] = float64(time.Since(t0)) / 1e3

	var shredNs time.Duration
	var shredTuples int64
	m["ringbuf.shred_cols"] = 0
	for _, p := range plans {
		for i := 0; i < p.NumInputs(); i++ {
			cs := newColumnStore(p, i, poolTuples)
			if cs == nil {
				continue
			}
			for _, on := range p.ColumnsRead(i) {
				if on {
					m["ringbuf.shred_cols"]++
				}
			}
			t0 = time.Now()
			for f := int64(0); f < frames; f++ {
				cs.Append(frameOf(b.pool, 0, ft, f))
				cs.Release((f + 1) * int64(ft))
			}
			shredNs += time.Since(t0)
			shredTuples += poolTuples
		}
	}
	m["ringbuf.shred_ns_per_tuple"] = 0
	if shredTuples > 0 {
		m["ringbuf.shred_ns_per_tuple"] = perTuple(shredNs, shredTuples)
	}

	// task: Push + FCFS.Next pairs, one goroutine per CPU worker
	// contending on the one queue.
	const pairs = 1 << 16
	q := task.NewQueue()
	fcfs := sched.FCFS{}
	var wg sync.WaitGroup
	t0 = time.Now()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &task.Task{}
			for i := 0; i < pairs; i++ {
				q.Push(t)
				for fcfs.Next(q, sched.CPU) == nil {
				}
			}
		}()
	}
	wg.Wait()
	m["task.pushpop_ns_per_op"] = float64(time.Since(t0)) / pairs

	// sched: HLS.Next over a queue holding both queries' tasks with both
	// processor classes asking. Each query prefers a different class, so
	// the scan looks ahead. Only the hybrid workload schedules with HLS.
	m["sched.next_ns_per_op"] = 0
	if sp.hybrid {
		mx := sched.NewMatrix(2, 1000, 0.25, float64(b.workers), 4)
		mx.Observe(0, sched.GPU, 0.0002)
		mx.Observe(0, sched.CPU, 0.0010)
		mx.Observe(1, sched.CPU, 0.0005)
		mx.Observe(1, sched.GPU, 0.0020)
		h := sched.NewHLS(2, mx, 10)
		h.MaxLookahead = 128
		hq := task.NewQueue()
		for i := 0; i < 64; i++ {
			hq.Push(&task.Task{Query: i % 2, ID: int64(i / 2)})
		}
		var calls atomic.Int64
		t0 = time.Now()
		for _, p := range []sched.Processor{sched.CPU, sched.GPU} {
			wg.Add(1)
			go func(p sched.Processor) {
				defer wg.Done()
				n := int64(0)
				for i := 0; i < pairs; i++ {
					if t := h.Next(hq, p); t != nil {
						hq.Push(t)
					}
					n++
				}
				calls.Add(n)
			}(p)
		}
		wg.Wait()
		m["sched.next_ns_per_op"] = float64(time.Since(t0)) / float64(calls.Load()) * 2
	}

	// exec, window, result, gpu: the workload's plans over ϕ-sized tasks
	// cut from replayTuples per input, as column views.
	var dev *gpu.Device
	if sp.hybrid {
		dev = gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-9)})
		defer dev.Close()
	}
	var procNs, fragNs, asmNs, gpuNs time.Duration
	var tuples, tasks, frags int64
	for _, p := range plans {
		batches := b.cutTasks(p, b.inputs())
		results := make([]*exec.TaskResult, len(batches))
		for k, in := range batches {
			res := p.NewResult()
			t0 = time.Now()
			if err := p.Process(in, res); err != nil {
				return err
			}
			procNs += time.Since(t0)
			results[k] = res

			var fr []window.Fragment
			n := len(in[0].Data) / tupleSize
			t0 = time.Now()
			fr = p.Fragments(fr, 0, n, in[0].Data, in[0].Ctx)
			fragNs += time.Since(t0)
			frags += int64(len(fr))
			tasks++
			tuples += int64(n + len(in[1].Data)/tupleSize)
		}
		asm := exec.NewAssembler(p)
		var out []byte
		t0 = time.Now()
		for _, res := range results {
			out = asm.Drain(res, out[:0])
		}
		asmNs += time.Since(t0)
		for _, res := range results {
			p.ReleaseResult(res)
		}
		if dev != nil {
			prog := dev.Compile(p)
			for _, in := range batches {
				res := p.NewResult()
				t0 = time.Now()
				if err := prog.Run(in, res); err != nil {
					return err
				}
				gpuNs += time.Since(t0)
				p.ReleaseResult(res)
			}
		}
	}
	m["exec.process_ns_per_tuple"] = perTuple(procNs, tuples)
	m["window.fragments_ns_per_task"] = float64(fragNs) / float64(tasks)
	m["window.fragments_per_task"] = float64(frags) / float64(tasks)
	m["result.assemble_ns_per_tuple"] = perTuple(asmNs, tuples)
	m["gpu.run_ns_per_tuple"] = 0
	if dev != nil {
		m["gpu.run_ns_per_tuple"] = perTuple(gpuNs, tuples)
	}

	// engine: Handle.InsertInto with no TCP in front and one CPU worker —
	// the single-threaded baseline of the same job, 0.2 s of the
	// workload's fixed rate.
	steps := int64(sp.rate*0.2) / int64(b.stepTuples())
	cfg := engine.Config{CPUWorkers: 1, TaskSize: sp.phi, DisablePad: true}
	if dev != nil {
		cfg.GPU, cfg.Policy = dev, "hls"
	}
	eng := engine.New(cfg)
	type feed struct {
		h    *engine.Handle
		side int
		off  int
	}
	var feeds []feed
	for _, qs := range sp.queries {
		h, err := eng.Register(qs.build())
		if err != nil {
			return err
		}
		feeds = append(feeds, feed{h, 0, 0})
		if qs.shape == shapeJoin {
			feeds = append(feeds, feed{h, 1, poolTuples / 2})
		}
	}
	if err := eng.Start(); err != nil {
		return err
	}
	t0 = time.Now()
	for s := int64(0); s < steps; s++ {
		for _, f := range feeds {
			fr := frameOf(b.pool, f.off, ft, s)
			stamp(fr, s*int64(ft))
			f.h.InsertInto(f.side, fr)
		}
	}
	eng.Drain()
	m["engine.direct_1w_mtps"] = float64(steps*int64(b.stepTuples())) / time.Since(t0).Seconds() / 1e6
	eng.Close()
	return nil
}

// newColumnStore mirrors the engine's registration: a store shredding the
// fields the plan reads of input i, or nil when it reads none.
func newColumnStore(p *exec.Plan, i int, capTuples int) *ringbuf.ColumnStore {
	s := p.InputSchema(i)
	read := p.ColumnsRead(i)
	any := false
	for _, on := range read {
		any = any || on
	}
	if !any {
		return nil
	}
	offs, widths := make([]int, s.NumFields()), make([]int, s.NumFields())
	for f := range offs {
		offs[f], widths[f] = s.Offset(f), s.Field(f).Type.Size()
	}
	return ringbuf.MustNewColumnStore(offs, widths, read, s.TupleSize(), capTuples)
}

// cutTasks materialises replayTuples of each input as the dispatcher would
// hand them to workers: ϕ bytes per task (split evenly between a join's
// inputs), contiguous rows plus the column views the plan reads.
func (b *bench) cutTasks(p *exec.Plan, ins [2]input) [][2]exec.Batch {
	per := b.sp.phi / tupleSize / p.NumInputs()
	var rows [2][]byte
	var cols [2]*ringbuf.ColumnStore
	for i := 0; i < p.NumInputs(); i++ {
		rows[i] = make([]byte, replayTuples*tupleSize)
		for t := int64(0); t < replayTuples; t++ {
			copy(rows[i][t*tupleSize:], ins[i].tuple(t))
		}
		stamp(rows[i], 0)
		if cols[i] = newColumnStore(p, i, replayTuples); cols[i] != nil {
			cols[i].Append(rows[i])
		}
	}
	var out [][2]exec.Batch
	for first := 0; first+per <= replayTuples; first += per {
		var in [2]exec.Batch
		for i := 0; i < p.NumInputs(); i++ {
			in[i] = exec.Batch{
				Data: rows[i][first*tupleSize : (first+per)*tupleSize],
				Ctx:  window.Context{FirstIndex: int64(first), PrevTimestamp: int64(first) - 1},
			}
			if first == 0 {
				in[i].Ctx.PrevTimestamp = window.NoPrev
			}
			if cols[i] != nil {
				in[i].Cols, _ = cols[i].Views(nil, int64(first), int64(first+per))
			}
		}
		out = append(out, in)
	}
	return out
}
