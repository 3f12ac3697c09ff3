package exec

import (
	"saber/internal/expr"
	"saber/internal/window"
)

// This file is the seam between the compiled plan and the (simulated)
// GPGPU kernels in internal/gpu: the kernels implement the paper's §5.4
// algorithms — prefix-sum compaction, per-fragment reduction, atomic
// open-addressing tables, two-pass joins — against these hooks, so both
// processors evaluate the same compiled expressions and produce
// assembly-compatible results.

// EvalFilter evaluates the WHERE predicate over a tuple (true when the
// query has no predicate).
func (p *Plan) EvalFilter(tuple []byte) bool {
	return p.filter == nil || p.filter.EvalTuple(tuple)
}

// FilterSelect appends to sel[:0] the indices in [lo, hi) of input-0
// tuples passing the WHERE predicate, using one batch evaluation over
// the range. The GPGPU map kernel uses it per workgroup so both backends
// run the same count+compact structure.
func (p *Plan) FilterSelect(sel []int32, data []byte, lo, hi int) []int32 {
	sel = sel[:0]
	if p.filter == nil {
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
		return sel
	}
	tsz := p.in[0].TupleSize()
	sc := p.getScratch()
	sel = p.filter.EvalBatch(&sc.vec, sel, expr.BatchInput{L: data[lo*tsz:], LStride: tsz, N: hi - lo})
	p.putScratch(sc)
	if lo != 0 {
		for i := range sel {
			sel[i] += int32(lo)
		}
	}
	return sel
}

// WriteOutputBatch appends the output tuples for the selected rows
// (batch-absolute indices) of a packed batch — the compact half the
// GPGPU map kernel shares with the CPU operators.
func (p *Plan) WriteOutputBatch(dst, data []byte, n int, sel []int32) []byte {
	sc := p.getScratch()
	dst = p.writeOutBatch(dst, data, p.in[0].TupleSize(), n, sel, false, sc)
	p.putScratch(sc)
	return dst
}

// Fragments computes input i's window fragments for a batch of n tuples.
func (p *Plan) Fragments(dst []window.Fragment, i, n int, data []byte, ctx window.Context) []window.Fragment {
	view := newTSView(p.in[i], data)
	_ = n
	return p.windows[i].Fragments(dst, view.Len(), view, ctx)
}

// NumAggs returns the number of aggregates.
func (p *Plan) NumAggs() int { return len(p.aggs) }

// AggOps returns the per-accumulator merge operations.
func (p *Plan) AggOps() []MergeOp { return p.ops }

// AggArg evaluates aggregate a's argument over a tuple (0 for count).
func (p *Plan) AggArg(a int, tuple []byte) float64 {
	if p.aggs[a].arg == nil {
		return 0
	}
	return p.aggs[a].arg.EvalFloat(tuple, nil)
}

// Grouped reports whether the aggregation has GROUP BY (or DISTINCT).
func (p *Plan) Grouped() bool { return p.grouped }

// KeyLen returns the group key width in bytes.
func (p *Plan) KeyLen() int { return p.keyLen }

// GroupKey extracts a tuple's group key into dst.
func (p *Plan) GroupKey(dst, tuple []byte) []byte { return p.key(dst, tuple) }

// NewTable fetches a pooled, reset group table compatible with Merge and
// Finalize.
func (p *Plan) NewTable() *HashTable { return p.newTable() }

// SeedSlot initialises a fresh group slot's accumulators (±Inf for
// min/max).
func (p *Plan) SeedSlot(sl Slot) { p.seedSlot(sl) }

// TimestampOf returns the timestamp of tuple i in a packed batch of
// input side's schema.
func (p *Plan) TimestampOf(side int, data []byte, i int) int64 {
	s := p.in[side]
	return s.Timestamp(data[i*s.TupleSize():])
}
