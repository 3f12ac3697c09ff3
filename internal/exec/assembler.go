package exec

// Assembler drives the assembly operator function over a query's task
// results. The result stage feeds it task results strictly in query-task
// order; it accumulates window partials across tasks, finalises windows as
// they close, and appends completed output-stream bytes.
//
// An Assembler is owned by the (serialised) result stage of one query and
// is not safe for concurrent use — the paper's result stage likewise
// serialises assembly per query via the control buffer (§4.3).
type Assembler struct {
	p       *Plan
	pending map[int64]*WindowPartial
}

// NewAssembler creates an assembler for a plan.
func NewAssembler(p *Plan) *Assembler {
	return &Assembler{p: p, pending: make(map[int64]*WindowPartial)}
}

// Pending returns the number of windows awaiting more fragments.
func (a *Assembler) Pending() int { return len(a.pending) }

// Drain consumes one task's result and appends any output-stream bytes
// that became complete: first the windows its partials close, which
// opened in earlier tasks, then its Stream — IStream output, or windows
// complete in this task, which have higher window indices than any
// window closing here. The caller may release res afterwards; Drain
// steals any resources it needs to keep.
func (a *Assembler) Drain(res *TaskResult, dst []byte) []byte {
	for i := range res.Partials {
		part := &res.Partials[i]
		acc, ok := a.pending[part.Window]
		if !ok {
			if part.ClosedHere {
				// Complete in this task (join and UDF tasks emit those
				// as partials), or its earlier fragments were lost to a
				// quarantined task: finalise without buffering.
				dst = a.p.Finalize(part, dst)
				continue
			}
			moved := *part
			// Steal the table so releasing res does not recycle it, and
			// copy Vals out of the result's arena, which releasing res
			// reuses.
			part.Table = nil
			moved.Vals = append([]float64(nil), moved.Vals...)
			a.pending[part.Window] = &moved
			continue
		}
		a.p.Merge(acc, part)
		if acc.ClosedHere {
			dst = a.p.Finalize(acc, dst)
			delete(a.pending, part.Window)
		}
	}
	return append(dst, res.Stream...)
}

// Flush finalises every still-open window, in window order, as if the
// stream had ended. Used at engine shutdown so tail windows are not lost.
func (a *Assembler) Flush(dst []byte) []byte {
	for len(a.pending) > 0 {
		min := int64(1<<63 - 1)
		for k := range a.pending {
			if k < min {
				min = k
			}
		}
		dst = a.p.Finalize(a.pending[min], dst)
		delete(a.pending, min)
	}
	return dst
}
