package gpu

import (
	"math"
	"sort"

	"saber/internal/exec"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/window"
)

// Program is a query plan bound to a device: the OpenCL analogue of the
// paper's populated kernel templates (§5.4).
type Program struct {
	d    *Device
	plan *exec.Plan
	cost model.QueryCost
}

// Compile binds a plan to the device.
func (d *Device) Compile(plan *exec.Plan) *Program {
	return &Program{d: d, plan: plan, cost: model.Analyze(plan.Q)}
}

// Cost returns the program's analysed query cost.
func (p *Program) Cost() model.QueryCost { return p.cost }

// Submit enqueues a task into the five-stage pipeline and returns a
// completion channel. Up to the device's PipelineDepth tasks are in
// flight; beyond that Submit blocks, which is the backpressure the GPGPU
// worker thread relies on.
func (p *Program) Submit(in [2]exec.Batch, res *exec.TaskResult) <-chan error {
	return p.SubmitTraced(in, res, nil)
}

// SubmitTraced is Submit with a task trace: each pipeline stage stamps
// its duration (copyin/movein/kernel/moveout/copyout) into tr. A nil tr
// disables stamping.
func (p *Program) SubmitTraced(in [2]exec.Batch, res *exec.TaskResult, tr *obs.TaskTrace) <-chan error {
	done := make(chan error, 1)
	p.d.pipe.submit(&job{prog: p, in: in, res: res, done: done, selectivity: 1, tr: tr})
	return done
}

// Run executes a task synchronously.
func (p *Program) Run(in [2]exec.Batch, res *exec.TaskResult) error {
	return <-p.Submit(in, res)
}

// runKernels executes the plan's kernels over the job's device buffers.
// Called from the pipeline's execute stage. The slot pool is shared by
// every query on the device, so stream output left by the slot's previous
// job is dropped first; only mapKernel writes devOut.
func (p *Program) runKernels(j *job) {
	j.slot.devOut = j.slot.devOut[:0]
	switch p.plan.Kind {
	case exec.Map:
		p.mapKernel(j)
	case exec.Aggregate:
		p.aggKernel(j)
	case exec.Join:
		p.joinKernel(j)
	case exec.UDFOp:
		p.udfKernel(j)
	}
}

// udfKernel evaluates a user-defined operator function: fragments/window
// pairs are computed host-side; each window's fragment function runs as
// an independent work item.
func (p *Program) udfKernel(j *job) {
	plan := p.plan
	if plan.NumInputs() == 2 {
		devIn := [2]exec.Batch{
			{Data: j.slot.devIn[0], Ctx: j.in[0].Ctx},
			{Data: j.slot.devIn[1], Ctx: j.in[1].Ctx},
		}
		j.tuples = len(devIn[0].Data)/plan.InputSchema(0).TupleSize() +
			len(devIn[1].Data)/plan.InputSchema(1).TupleSize()
		pairs := plan.JoinPairs(devIn)
		if len(pairs) == 0 {
			return
		}
		parts := make([]exec.WindowPartial, len(pairs))
		p.d.launch(len(pairs), func(lo, hi int) {
			for pi := lo; pi < hi; pi++ {
				parts[pi] = plan.UDFPartialPair(pairs[pi], devIn)
			}
		})
		j.res.Partials = append(j.res.Partials, parts...)
		j.outBytes = partialBytes(plan, parts)
		return
	}

	in := exec.Batch{Data: j.slot.devIn[0], Ctx: j.in[0].Ctx}
	j.tuples = len(in.Data) / plan.InputSchema(0).TupleSize()
	frags := plan.Fragments(nil, 0, j.tuples, in.Data, in.Ctx)
	if len(frags) == 0 {
		return
	}
	parts := make([]exec.WindowPartial, len(frags))
	p.d.launch(len(frags), func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			parts[fi] = plan.UDFPartialSingle(in, frags[fi])
		}
	})
	j.res.Partials = append(j.res.Partials, parts...)
	j.outBytes = partialBytes(plan, parts)
}

// mapKernel implements projection/selection with the paper's two-step
// prefix-sum compaction: kernel 1 evaluates the predicate into a flag
// vector and per-workgroup counts; a scan turns counts into offsets;
// kernel 2 writes each selected tuple's projection to its compacted
// position in the device output buffer.
func (p *Program) mapKernel(j *job) {
	plan := p.plan
	s := plan.InputSchema(0)
	tsz := s.TupleSize()
	var data []byte
	var cols [][]byte
	var n int
	if j.colStaged {
		// Columnar job: the device holds per-field segments and never
		// materialises a row image; both kernels read the columns
		// directly. Row-only fields have nil entries (the ring shreds only
		// the plan's referenced set), so the tuple count comes from the
		// first staged column, not a byte total.
		cols = j.slot.devCols
		for f, c := range cols {
			if c != nil {
				n = len(c) / s.Field(f).Type.Size()
				break
			}
		}
	} else {
		data = j.slot.devIn[0]
		n = len(data) / tsz
	}
	j.tuples = n
	if n == 0 {
		return
	}

	gs := p.d.cfg.WorkgroupTuples
	nGroups := (n + gs - 1) / gs
	flags := make([]uint8, n)
	counts := make([]int, nGroups)

	p.d.launch(n, func(lo, hi int) {
		// Batch-evaluate the predicate over the workgroup's range — the
		// same vectorized selection the CPU path runs.
		sel := plan.FilterSelect(nil, data, cols, lo, hi)
		for _, i := range sel {
			flags[i] = 1
		}
		counts[lo/gs] = len(sel)
	})

	// Scan the workgroup counts (small, done by the host like the
	// paper's window-boundary computation).
	offsets := make([]int, nGroups)
	total := 0
	for g, c := range counts {
		offsets[g] = total
		total += c
	}

	osz := plan.OutputSchema().TupleSize()
	if cap(j.slot.devOut) < total*osz {
		j.slot.devOut = make([]byte, total*osz)
	}
	out := j.slot.devOut[:total*osz]
	p.d.launch(n, func(lo, hi int) {
		pos := offsets[lo/gs]
		if j.colStaged {
			// Rebuild the workgroup's selection from the flag vector and
			// write its compacted run in one columnar batch append.
			sel := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if flags[i] != 0 {
					sel = append(sel, int32(i))
				}
			}
			dst := out[pos*osz : pos*osz : (pos+len(sel))*osz]
			plan.WriteOutputBatch(dst, nil, cols, n, sel)
			return
		}
		tmp := make([]byte, 0, osz)
		for i := lo; i < hi; i++ {
			if flags[i] == 0 {
				continue
			}
			tmp = plan.WriteOutput(tmp[:0], data[i*tsz:(i+1)*tsz], nil)
			copy(out[pos*osz:], tmp)
			pos++
		}
	})
	j.slot.devOut = out
	j.outBytes = total * osz
	if n > 0 {
		j.selectivity = float64(total) / float64(n)
		if j.selectivity < 0.02 {
			j.selectivity = 0.02 // the guard predicate still runs
		}
	}
}

// aggKernel implements windowed aggregation: window boundaries are
// computed host-side, then one workgroup reduces each fragment (scalar
// aggregates) or all workgroups fold tuples into per-fragment atomic
// hash tables (GROUP BY), which are then compacted into CPU-compatible
// tables.
func (p *Program) aggKernel(j *job) {
	plan := p.plan
	s := plan.InputSchema(0)
	tsz := s.TupleSize()
	data := j.slot.devIn[0]
	n := len(data) / tsz
	j.tuples = n
	if n == 0 {
		return
	}
	frags := plan.Fragments(nil, 0, n, data, j.in[0].Ctx)
	if len(frags) == 0 {
		return
	}
	parts := make([]exec.WindowPartial, len(frags))
	for i, f := range frags {
		parts[i] = exec.WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			MaxTS:      math.MinInt64,
		}
		if f.End > f.Start {
			parts[i].MaxTS = plan.TimestampOf(0, data, f.End-1)
		}
	}

	if plan.Grouped() {
		p.aggKernelGrouped(j, data, tsz, frags, parts)
	} else {
		p.aggKernelScalar(j, data, tsz, frags, parts)
	}

	j.res.Partials = append(j.res.Partials, parts...)
	j.outBytes = partialBytes(plan, parts)
}

func (p *Program) aggKernelScalar(j *job, data []byte, tsz int, frags []window.Fragment, parts []exec.WindowPartial) {
	plan := p.plan
	m := plan.NumAggs()
	ops := plan.AggOps()
	// Carve every fragment's accumulators out of the result's arena
	// before the launch: AllocVals is not safe from concurrent work
	// items.
	for fi := range parts {
		part := &parts[fi]
		part.Vals = j.res.AllocVals(m)
		for a, op := range ops {
			switch op {
			case exec.OpMin:
				part.Vals[a] = math.Inf(1)
			case exec.OpMax:
				part.Vals[a] = math.Inf(-1)
			}
		}
	}
	p.d.launch(len(frags), func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			f := frags[fi]
			part := &parts[fi]
			// Reduction over the fragment's tuples.
			for i := f.Start; i < f.End; i++ {
				tuple := data[i*tsz : (i+1)*tsz]
				if !plan.EvalFilter(tuple) {
					continue
				}
				part.Count++
				for a, op := range ops {
					v := plan.AggArg(a, tuple)
					switch op {
					case exec.OpAdd:
						part.Vals[a] += v
					case exec.OpMin:
						if v < part.Vals[a] {
							part.Vals[a] = v
						}
					case exec.OpMax:
						if v > part.Vals[a] {
							part.Vals[a] = v
						}
					}
				}
			}
		}
	})
}

func (p *Program) aggKernelGrouped(j *job, data []byte, tsz int, frags []window.Fragment, parts []exec.WindowPartial) {
	plan := p.plan
	m := plan.NumAggs()
	ops := plan.AggOps()
	n := len(data) / tsz

	seed := make([]float64, m)
	for a, op := range ops {
		switch op {
		case exec.OpMin:
			seed[a] = math.Inf(1)
		case exec.OpMax:
			seed[a] = math.Inf(-1)
		}
	}

	tables := make([]*atomicTable, len(frags))
	for i, f := range frags {
		capHint := (f.End - f.Start) / 4
		if capHint < 16 {
			capHint = 16
		}
		if capHint > 4096 {
			capHint = 4096
		}
		tables[i] = newAtomicTable(plan.KeyLen(), m, capHint)
	}

	// Fold every tuple into the tables of all fragments containing it.
	// Workgroups cover tuple ranges; fragments are sorted, so each group
	// scans forward from the first fragment that overlaps its range.
	p.d.launch(n, func(lo, hi int) {
		keyBuf := make([]byte, 0, plan.KeyLen())
		vals := make([]float64, m)
		first := sort.Search(len(frags), func(i int) bool { return frags[i].End > lo })
		for fi := first; fi < len(frags) && frags[fi].Start < hi; fi++ {
			f := frags[fi]
			t := tables[fi]
			start, end := f.Start, f.End
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			for i := start; i < end; i++ {
				tuple := data[i*tsz : (i+1)*tsz]
				if !plan.EvalFilter(tuple) {
					continue
				}
				keyBuf = plan.GroupKey(keyBuf, tuple)
				for a := range vals {
					vals[a] = plan.AggArg(a, tuple)
				}
				ts := plan.TimestampOf(0, data, i)
				if slot := t.upsert(keyBuf, seed); slot >= 0 {
					t.fold(slot, vals, ops, ts)
				} else {
					t.foldSpill(keyBuf, vals, ops, ts, seed)
				}
			}
		}
	})

	// Compact the atomic tables into CPU-compatible tables (the paper
	// compacts sparsely populated tables after processing).
	p.d.launch(len(frags), func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			table := plan.NewTable()
			tables[fi].drainInto(table, plan.SeedSlot, ops)
			parts[fi].Table = table
		}
	})
}

// joinKernel implements the windowed θ-join: window pairs are formed
// host-side (window computation stays on the CPU, §5.4), then each
// window's cross join runs as an independent work item
// (count-and-compact per window).
func (p *Program) joinKernel(j *job) {
	plan := p.plan
	sa, sb := plan.InputSchema(0), plan.InputSchema(1)
	devIn := [2]exec.Batch{
		{Data: j.slot.devIn[0], Ctx: j.in[0].Ctx},
		{Data: j.slot.devIn[1], Ctx: j.in[1].Ctx},
	}
	j.tuples = len(devIn[0].Data)/sa.TupleSize() + len(devIn[1].Data)/sb.TupleSize()

	pairs := plan.JoinPairs(devIn)
	if len(pairs) == 0 {
		return
	}
	parts := make([]exec.WindowPartial, len(pairs))
	p.d.launch(len(pairs), func(lo, hi int) {
		for pi := lo; pi < hi; pi++ {
			parts[pi] = plan.JoinPartial(pairs[pi], devIn)
		}
	})

	j.res.Partials = append(j.res.Partials, parts...)
	j.outBytes = partialBytes(plan, parts)
}

// partialBytes estimates the byte volume of structured fragment results
// for transfer-time accounting.
func partialBytes(plan *exec.Plan, parts []exec.WindowPartial) int {
	total := 0
	for i := range parts {
		pt := &parts[i]
		total += 24 // window id + flags + count
		total += 8 * len(pt.Vals)
		if pt.Table != nil {
			total += pt.Table.Len() * (plan.KeyLen() + 8*plan.NumAggs() + 16)
		}
		total += len(pt.Data) + len(pt.AData) + len(pt.BData)
	}
	return total
}
