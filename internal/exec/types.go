package exec

import (
	"saber/internal/schema"
	"saber/internal/window"
)

// Batch is one input stream's slice of data for a query task: a contiguous
// run of serialised tuples plus the O(1) stream-position context the
// dispatcher captured when it cut the batch (paper §4.1). All window
// computation over the batch happens inside the task, in parallel.
type Batch struct {
	// Data holds packed fixed-width tuples.
	Data []byte
	// Cols is read by no operator: every kernel reads Data. It remains
	// only for benchmark/layers.go, its one user, which replays column
	// segments of a retired layout (Cols[j] holds field j of every tuple,
	// packed at the field's width).
	Cols [][]byte
	// Ctx is the stream position of the batch.
	Ctx window.Context
}

// Tuples returns the number of tuples given the stream's tuple size.
func (b Batch) Tuples(tupleSize int) int { return len(b.Data) / tupleSize }

// tsView adapts a packed batch to window.Timestamps.
type tsView struct {
	s    *schema.Schema
	data []byte
	n    int
}

func newTSView(s *schema.Schema, data []byte) tsView {
	return tsView{s: s, data: data, n: len(data) / s.TupleSize()}
}

func (v tsView) Len() int { return v.n }

func (v tsView) At(i int) int64 { return v.s.Timestamp(v.data[i*v.s.TupleSize():]) }

// WindowPartial is the window fragment result a task produces for one
// window (paper §3, f_f output). Its payload depends on the operator class:
//
//   - IStream operators (π, σ) and aggregate windows complete in one CPU
//     task bypass partials entirely: their output is TaskResult.Stream.
//   - Aggregations carry either scalar accumulators (Count/Vals/MaxTS) or a
//     group hash table (Table).
//   - Joins carry the result tuples joined so far (Data) plus the window's
//     raw input seen so far on each side (AData/BData) so that cross-task
//     tuple pairs can be joined during assembly.
type WindowPartial struct {
	// Window is the window index k.
	Window int64
	// OpenedHere/ClosedHere mirror the fragment flags; for joins they are
	// the conjunction across both inputs.
	OpenedHere, ClosedHere bool

	// Scalar aggregation payload.
	Count int64
	Vals  []float64
	MaxTS int64

	// Grouped aggregation payload.
	Table *HashTable

	// Join payload.
	Data         []byte
	AData, BData []byte
	// ClosedSides tracks per-input close state: a join window may close
	// on its two inputs in different tasks.
	ClosedSides [2]bool
}

// TaskResult is the output of the batch operator function for one task.
type TaskResult struct {
	// Stream is output that needs no assembly: the IStream output of π/σ
	// tasks (transformed tuples in input order), and the rows of RStream
	// windows that opened and closed within this task, finalised by the
	// worker in window order. The result stage appends it in task order,
	// after finalising the windows that Partials close.
	Stream []byte
	// Partials holds the fragment results of windows that span tasks, in
	// window order.
	Partials []WindowPartial
	// FreeTo, per input, is the absolute ring-buffer offset up to which
	// the input data is no longer needed once this result is consumed.
	// Managed by the engine, carried here for the result stage.
	FreeTo [2]int64

	// valsArena backs the Vals slices of scalar-aggregation partials so
	// per-fragment accumulator allocation is amortised across the
	// result's pooled lifetime. Consumers that keep a partial beyond the
	// result (the assembler's pending map) must copy Vals out.
	valsArena []float64
}

// route files one aggregate fragment: a window complete in this task is
// finalised straight into Stream, any other travels as a partial.
func (r *TaskResult) route(p *Plan, part WindowPartial) {
	if part.OpenedHere && part.ClosedHere {
		r.Stream = p.Finalize(&part, r.Stream)
		return
	}
	r.Partials = append(r.Partials, part)
}

// AllocVals carves a zeroed m-wide accumulator slice out of the result's
// arena. The slice is valid until the result is reset or released.
func (r *TaskResult) AllocVals(m int) []float64 {
	if m == 0 {
		return nil
	}
	if cap(r.valsArena)-len(r.valsArena) < m {
		// Start a fresh chunk; slices handed out earlier keep the old
		// chunk alive through their partials.
		c := 2 * cap(r.valsArena)
		if c < 64 {
			c = 64
		}
		if c < m {
			c = m
		}
		r.valsArena = make([]float64, 0, c)
	}
	base := len(r.valsArena)
	r.valsArena = r.valsArena[:base+m]
	// Cap the handed-out slice at its own end so a consumer's append
	// cannot clobber the next fragment's accumulators — but leave the
	// arena's capacity intact, or every later call starts a fresh chunk.
	vals := r.valsArena[base : base+m : base+m]
	for i := range vals {
		vals[i] = 0
	}
	return vals
}

// Reset clears the result for reuse, retaining allocated capacity.
func (r *TaskResult) Reset() {
	r.Stream = r.Stream[:0]
	r.Partials = r.Partials[:0]
	r.FreeTo = [2]int64{}
	r.valsArena = r.valsArena[:0]
}
