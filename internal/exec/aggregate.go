package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// processAggregate runs the windowed-aggregation batch operator function:
// it computes the batch's window fragments, renders every window that
// opens and closes in the batch into result rows, and produces one
// WindowPartial per other fragment (TaskResult.route). Sliding windows
// use incremental computation (paper §5.3): for invertible functions
// (count/sum/avg) a non-grouped aggregate takes O(1) per fragment off
// prefix sums, and a grouped one maintains a rolling group table that is
// updated with the tuples entering and leaving consecutive fragments
// instead of being rebuilt.
//
// Every kernel batch-evaluates the filter into a selection vector and
// every aggregate argument into a value column once per batch, ahead of
// the fragment loops; the grouped kernels also gather every selected
// row's key once, and the rolling one resolves it to a slot once.
func (p *Plan) processAggregate(in Batch, res *TaskResult) {
	s := p.in[0]
	tsz := s.TupleSize()
	n := len(in.Data) / tsz
	sc := p.getScratch()
	defer p.putScratch(sc)

	view := newTSView(s, in.Data)
	sc.frags = p.windows[0].Fragments(sc.frags[:0], n, view, in.Ctx)
	if len(sc.frags) == 0 {
		return
	}

	switch {
	case p.grouped && p.invertApl:
		p.aggGroupedRollingVec(in, sc, view, res)
	case p.grouped:
		p.aggGroupedDirectVec(in, sc, view, res)
	case p.invertApl:
		p.aggScalarPrefixVec(in, sc, view, res)
	default:
		p.aggScalarDirectVec(in, sc, view, res)
	}
}

func fragLastTS(view tsView, start, end int) int64 {
	if end > start {
		return view.At(end - 1)
	}
	return minInt64
}

// evalAggBatch is the vectorized pre-pass: it fills the scratch selection
// vector from the filter (nil/all=true when there is no filter) and
// evaluates every aggregate argument into its value column, once per
// batch. Argless aggregates (count) get no column.
func (p *Plan) evalAggBatch(sc *scratch, b Batch, tsz, n int) (sel []int32, all bool) {
	in := expr.BatchInput{L: b.Data, LStride: tsz, N: n}
	m := len(p.aggs)
	sc.cols = growF64(sc.cols, m*n)
	for a, spec := range p.aggs {
		col := sc.cols[a*n : (a+1)*n : (a+1)*n]
		if spec.arg == nil {
			// Argless (count): a zero column, so the fused fold loops can
			// treat every aggregate uniformly.
			for i := range col {
				col[i] = 0
			}
			continue
		}
		spec.arg.EvalBatchFloat(&sc.vec, col, in)
	}
	if p.filter == nil {
		return nil, true
	}
	sc.sel = p.filter.EvalBatch(&sc.vec, sc.sel, in)
	return sc.sel, false
}

// lowerBound returns the first index in sel whose value is >= v.
func lowerBound(sel []int32, v int32) int {
	return sort.Search(len(sel), func(i int) bool { return sel[i] >= v })
}

// aggScalarPrefixVec computes non-grouped invertible aggregates with
// prefix sums over the batch-evaluated selection vector and value columns:
// each fragment's partial is a difference of two prefix entries.
func (p *Plan) aggScalarPrefixVec(in Batch, sc *scratch, view tsView, res *TaskResult) {
	n := view.Len()
	m := len(p.aggs)
	sel, all := p.evalAggBatch(sc, in, p.in[0].TupleSize(), n)
	prefC := growI64(sc.prefixC, n+1)
	prefV := growF64(sc.prefixV, (n+1)*m)
	sc.prefixC, sc.prefixV = prefC, prefV
	prefC[0] = 0
	for a := 0; a < m; a++ {
		prefV[a] = 0
	}
	// One fused pass builds the count prefix and all value prefixes
	// together: the m running sums are independent dependency chains, so
	// interleaving them hides the FP add latency that per-agg passes would
	// serialise. Queries with up to three aggregates keep the running sums
	// in registers.
	cols := sc.cols
	si := 0
	cnt := int64(0)
	switch m {
	case 1:
		c0 := cols[:n]
		v0 := 0.0
		for i := 0; i < n; i++ {
			if all || (si < len(sel) && sel[si] == int32(i)) {
				if !all {
					si++
				}
				cnt++
				v0 += c0[i]
			}
			prefC[i+1] = cnt
			prefV[i+1] = v0
		}
	case 2:
		c0, c1 := cols[:n], cols[n:2*n]
		v0, v1 := 0.0, 0.0
		for i := 0; i < n; i++ {
			if all || (si < len(sel) && sel[si] == int32(i)) {
				if !all {
					si++
				}
				cnt++
				v0 += c0[i]
				v1 += c1[i]
			}
			prefC[i+1] = cnt
			prefV[(i+1)*2] = v0
			prefV[(i+1)*2+1] = v1
		}
	case 3:
		c0, c1, c2 := cols[:n], cols[n:2*n], cols[2*n:3*n]
		v0, v1, v2 := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			if all || (si < len(sel) && sel[si] == int32(i)) {
				if !all {
					si++
				}
				cnt++
				v0 += c0[i]
				v1 += c1[i]
				v2 += c2[i]
			}
			prefC[i+1] = cnt
			prefV[(i+1)*3] = v0
			prefV[(i+1)*3+1] = v1
			prefV[(i+1)*3+2] = v2
		}
	default:
		for i := 0; i < n; i++ {
			pass := all
			if !pass && si < len(sel) && sel[si] == int32(i) {
				pass = true
				si++
			}
			base, nbase := i*m, (i+1)*m
			if pass {
				prefC[i+1] = prefC[i] + 1
				for a := 0; a < m; a++ {
					prefV[nbase+a] = prefV[base+a] + cols[a*n+i]
				}
			} else {
				prefC[i+1] = prefC[i]
				copy(prefV[nbase:nbase+m], prefV[base:base+m])
			}
		}
	}
	p.emitPrefixFrags(sc, view, prefC, prefV, m, res)
}

func (p *Plan) emitPrefixFrags(sc *scratch, view tsView, prefC []int64, prefV []float64, m int, res *TaskResult) {
	for _, f := range sc.frags {
		part := WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			Count:      prefC[f.End] - prefC[f.Start],
			MaxTS:      fragLastTS(view, f.Start, f.End),
		}
		part.Vals = res.allocVals(m)
		for a := 0; a < m; a++ {
			part.Vals[a] = prefV[f.End*m+a] - prefV[f.Start*m+a]
		}
		res.route(p, part)
	}
}

func (p *Plan) seedVals(vals []float64) {
	for a, spec := range p.aggs {
		switch spec.op {
		case OpMin:
			vals[a] = math.Inf(1)
		case OpMax:
			vals[a] = math.Inf(-1)
		}
	}
}

// aggScalarDirectVec rescans each fragment off the pre-evaluated value
// columns: one tight fold per aggregate over the fragment's (selected)
// rows, in ascending row order. It serves non-invertible functions
// (min/max) and the SetIncremental(false) ablation.
func (p *Plan) aggScalarDirectVec(in Batch, sc *scratch, view tsView, res *TaskResult) {
	n := view.Len()
	m := len(p.aggs)
	sel, all := p.evalAggBatch(sc, in, p.in[0].TupleSize(), n)
	for _, f := range sc.frags {
		part := WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			MaxTS:      fragLastTS(view, f.Start, f.End),
			Vals:       res.allocVals(m),
		}
		p.seedVals(part.Vals)
		lo, hi := f.Start, f.End
		var selLo, selHi int
		if all {
			part.Count = int64(hi - lo)
		} else {
			selLo = lowerBound(sel, int32(lo))
			selHi = selLo + lowerBound(sel[selLo:], int32(hi))
			part.Count = int64(selHi - selLo)
		}
		for a, spec := range p.aggs {
			if spec.arg == nil {
				continue
			}
			col := sc.cols[a*n : (a+1)*n]
			acc := part.Vals[a]
			switch spec.op {
			case OpAdd:
				if all {
					for i := lo; i < hi; i++ {
						acc += col[i]
					}
				} else {
					for k := selLo; k < selHi; k++ {
						acc += col[sel[k]]
					}
				}
			case OpMin:
				if all {
					for i := lo; i < hi; i++ {
						if col[i] < acc {
							acc = col[i]
						}
					}
				} else {
					for k := selLo; k < selHi; k++ {
						if v := col[sel[k]]; v < acc {
							acc = v
						}
					}
				}
			case OpMax:
				if all {
					for i := lo; i < hi; i++ {
						if col[i] > acc {
							acc = col[i]
						}
					}
				} else {
					for k := selLo; k < selHi; k++ {
						if v := col[sel[k]]; v > acc {
							acc = v
						}
					}
				}
			}
			part.Vals[a] = acc
		}
		res.route(p, part)
	}
}

func (p *Plan) seedSlot(sl Slot) {
	for a, op := range p.ops {
		switch op {
		case OpMin:
			sl.SetVal(a, math.Inf(1))
		case OpMax:
			sl.SetVal(a, math.Inf(-1))
		}
	}
}

// addColsToSlot folds row i into a group slot off the pre-evaluated value
// columns: count plus each aggregate's add/min/max fold, no expression calls.
func (p *Plan) addColsToSlot(sl Slot, cols []float64, n, i int) {
	sl.AddCount(1)
	for a, spec := range p.aggs {
		if spec.arg == nil {
			continue
		}
		v := cols[a*n+i]
		switch spec.op {
		case OpAdd:
			sl.AddVal(a, v)
		case OpMin:
			sl.MinVal(a, v)
		case OpMax:
			sl.MaxVal(a, v)
		}
	}
}

// aggGroupedRollingVec computes grouped fragments incrementally: the
// rolling table always holds the current fragment's groups; moving to the
// next fragment removes the tuples that leave the window and adds those
// that enter. Requires invertible aggregates. Each selected row's group is
// resolved to a slot once per task (rowSlots); the remove and add scans
// then walk two monotonic cursors over the selection vector and fold the
// value columns by slot, with no key copy, hash or compare.
func (p *Plan) aggGroupedRollingVec(in Batch, sc *scratch, view tsView, res *TaskResult) {
	n := view.Len()
	sel, all := p.evalAggBatch(sc, in, p.in[0].TupleSize(), n)
	if all {
		sel = sc.identitySel(n)
	}
	if sc.rolling == nil || sc.rolling.KeyLen() != p.keyLen || sc.rolling.NumAggs() != len(p.aggs) {
		sc.rolling = NewHashTable(p.keyLen, len(p.aggs), 256)
	}
	roll := sc.rolling
	roll.Reset()
	first := lowerBound(sel, int32(sc.frags[0].Start))
	last := first + lowerBound(sel[first:], int32(sc.frags[len(sc.frags)-1].End))
	slots := p.rowSlots(sc, roll, in, sel, first, last)
	counts, vals, maxTS := roll.counts, roll.vals, roll.maxTS
	m, cols := len(p.aggs), sc.cols
	remPos, addPos := first, first
	for _, f := range sc.frags {
		// Remove tuples leaving the window.
		for remPos < last && sel[remPos] < int32(f.Start) {
			i, s := int(sel[remPos]), int(slots[remPos])
			remPos++
			counts[s]--
			for a := 0; a < m; a++ {
				vals[s*m+a] -= cols[a*n+i]
			}
		}
		// Add tuples entering the window.
		for addPos < last && sel[addPos] < int32(f.End) {
			i, s := int(sel[addPos]), int(slots[addPos])
			addPos++
			counts[s]++
			for a := 0; a < m; a++ {
				vals[s*m+a] += cols[a*n+i]
			}
			if ts := view.At(i); ts > maxTS[s] {
				maxTS[s] = ts
			}
		}
		p.emitRolling(roll, f, view, res)
	}
}

// rowSlots returns the rolling table's slot for each selected row in
// sel[lo:hi], indexed like sel. Rows are resolved in row order, the order
// they enter windows, so groups are inserted in the same order as when
// each row was looked up on entry; groups no row has entered yet have
// count 0, which every reader of the table skips. A pass that grows the
// table moves its groups, so it is redone, finding every key in place.
func (p *Plan) rowSlots(sc *scratch, roll *HashTable, in Batch, sel []int32, lo, hi int) []int32 {
	keys, kl := p.gatherKeys(sc, in, sel[lo:hi]), p.keyLen
	slots := slices.Grow(sc.slots[:0], hi)[:hi]
	sc.slots = slots
	for c := -1; c != roll.Cap(); {
		c = roll.Cap()
		for k := lo; k < hi; k++ {
			j := (k - lo) * kl
			slots[k] = int32(roll.Upsert(keys[j:j+kl], nil).i)
		}
	}
	return slots
}

// gatherKeys packs the group keys of the rows in sel, keyLen bytes each,
// into the scratch key buffer, reading each group column from the rows.
func (p *Plan) gatherKeys(sc *scratch, in Batch, sel []int32) []byte {
	kl := p.keyLen
	keys := slices.Grow(sc.keyBuf[:0], len(sel)*kl)[:len(sel)*kl]
	sc.keyBuf = keys
	ko := 0
	for _, f := range p.groupIdx {
		tsz, off, w := p.in[0].TupleSize(), int(p.colOffs[0][f]), p.colW[0][f]
		for j, i := range sel {
			if r := int(i)*tsz + off; w == 4 {
				binary.LittleEndian.PutUint32(keys[j*kl+ko:], binary.LittleEndian.Uint32(in.Data[r:]))
			} else {
				binary.LittleEndian.PutUint64(keys[j*kl+ko:], binary.LittleEndian.Uint64(in.Data[r:]))
			}
		}
		ko += w
	}
	return keys
}

// emitRolling renders a window complete in this task straight from the
// rolling table and snapshots any other fragment into a partial. A group's
// max contributing timestamp stays correct under rolling removal because
// removals always drop the window's oldest tuples.
func (p *Plan) emitRolling(roll *HashTable, f window.Fragment, view tsView, res *TaskResult) {
	if f.Opens && f.Closes {
		res.Stream = p.appendGroupRows(res.Stream, roll, fragLastTS(view, f.Start, f.End))
		return
	}
	res.Partials = append(res.Partials, p.snapshotRolling(roll, f, view))
}

// snapshotRolling copies the rolling table's live groups, in insertion
// order, into a pooled per-fragment table.
func (p *Plan) snapshotRolling(roll *HashTable, f window.Fragment, view tsView) WindowPartial {
	snap := p.newTable()
	kl, m := roll.keyLen, roll.nAggs
	for _, s := range roll.live {
		if i := int(s); roll.counts[i] > 0 {
			j := snap.Upsert(roll.keys[i*kl:(i+1)*kl], nil).i
			snap.counts[j], snap.maxTS[j] = roll.counts[i], roll.maxTS[i]
			copy(snap.vals[j*m:(j+1)*m], roll.vals[i*m:(i+1)*m])
		}
	}
	return WindowPartial{
		Window:     f.Window,
		OpenedHere: f.Opens,
		ClosedHere: f.Closes,
		Table:      snap,
		MaxTS:      fragLastTS(view, f.Start, f.End),
	}
}

// aggGroupedDirectVec rebuilds each fragment's group table from scratch
// off the selection vector and pre-evaluated value columns; used when a
// non-invertible function is present.
func (p *Plan) aggGroupedDirectVec(in Batch, sc *scratch, view tsView, res *TaskResult) {
	n := view.Len()
	sel, all := p.evalAggBatch(sc, in, p.in[0].TupleSize(), n)
	if all {
		sel = sc.identitySel(n)
	}
	keys, kl := p.gatherKeys(sc, in, sel), p.keyLen
	for _, f := range sc.frags {
		table := p.newTable()
		for k := lowerBound(sel, int32(f.Start)); k < len(sel) && sel[k] < int32(f.End); k++ {
			i := int(sel[k])
			sl := table.Upsert(keys[k*kl:(k+1)*kl], p.seedSlot)
			p.addColsToSlot(sl, sc.cols, n, i)
			sl.ObserveTS(view.At(i))
		}
		res.route(p, WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			Table:      table,
			MaxTS:      fragLastTS(view, f.Start, f.End),
		})
	}
}

// SetIncremental force-enables or disables the incremental computation
// paths; the default from Compile enables them whenever every aggregate is
// invertible. Exposed for the ablation benchmarks.
func (p *Plan) SetIncremental(on bool) {
	if on {
		for _, spec := range p.aggs {
			if spec.fn == query.Min || spec.fn == query.Max {
				return // cannot roll non-invertible functions
			}
		}
	}
	p.invertApl = on
}
