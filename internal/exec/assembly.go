package exec

import (
	"encoding/binary"
	"math"
	"slices"

	"saber/internal/query"
	"saber/internal/schema"
)

// Merge is the assembly operator function's pairwise step (paper §4.3): it
// folds the next task's fragment result for a window into the accumulated
// partial for that window. Partials must be merged in query-task order;
// the result stage guarantees that by draining task results in task-id
// order. next's resources are consumed: its table (if any) is released.
func (p *Plan) Merge(acc, next *WindowPartial) {
	if (p.Kind == Join || p.Kind == UDFOp) && p.NumInputs() == 2 {
		// A two-input window closes when both inputs have passed it,
		// possibly in different tasks.
		acc.ClosedSides[0] = acc.ClosedSides[0] || next.ClosedSides[0]
		acc.ClosedSides[1] = acc.ClosedSides[1] || next.ClosedSides[1]
		acc.ClosedHere = acc.ClosedSides[0] && acc.ClosedSides[1]
	} else {
		acc.ClosedHere = acc.ClosedHere || next.ClosedHere
	}
	acc.OpenedHere = acc.OpenedHere || next.OpenedHere
	if next.MaxTS > acc.MaxTS {
		acc.MaxTS = next.MaxTS
	}
	switch p.Kind {
	case UDFOp:
		p.mergeUDF(acc, next)
		return
	case Aggregate:
		if p.grouped {
			if acc.Table == nil {
				acc.Table = next.Table
				next.Table = nil
				return
			}
			acc.Table.MergeFrom(next.Table, p.ops)
			if next.Table != nil {
				p.releaseTable(next.Table)
				next.Table = nil
			}
			return
		}
		acc.Count += next.Count
		if acc.Vals == nil {
			acc.Vals = make([]float64, len(p.aggs))
			for a, op := range p.ops {
				switch op {
				case OpMin:
					acc.Vals[a] = math.Inf(1)
				case OpMax:
					acc.Vals[a] = math.Inf(-1)
				}
			}
		}
		for a, op := range p.ops {
			switch op {
			case OpAdd:
				acc.Vals[a] += next.Vals[a]
			case OpMin:
				if next.Vals[a] < acc.Vals[a] {
					acc.Vals[a] = next.Vals[a]
				}
			case OpMax:
				if next.Vals[a] > acc.Vals[a] {
					acc.Vals[a] = next.Vals[a]
				}
			}
		}
	case Join:
		// Pairs within each side's own fragments were joined at batch
		// time; the cross-task pairs are joined here.
		acc.Data = append(acc.Data, next.Data...)
		acc.Data = p.joinCross(acc.Data, acc.AData, next.BData, nil)
		acc.Data = p.joinCross(acc.Data, next.AData, acc.BData, nil)
		if !acc.ClosedHere {
			acc.AData = append(acc.AData, next.AData...)
			acc.BData = append(acc.BData, next.BData...)
		} else {
			acc.AData, acc.BData = nil, nil
		}
	}
}

// Finalize renders a closed window's accumulated partial into output
// tuples appended to dst, applying HAVING and the stream function
// (RStream). The partial's table, if any, is released.
func (p *Plan) Finalize(part *WindowPartial, dst []byte) []byte {
	switch p.Kind {
	case UDFOp:
		return p.finalizeUDF(part, dst)
	case Join:
		return append(dst, part.Data...)
	case Aggregate:
		if p.grouped {
			dst = p.finalizeGrouped(part, dst)
			if part.Table != nil {
				p.releaseTable(part.Table)
				part.Table = nil
			}
			return dst
		}
		return p.finalizeScalar(part, dst)
	}
	return dst
}

func (p *Plan) finalizeScalar(part *WindowPartial, dst []byte) []byte {
	if part.Count == 0 {
		return dst // empty window: no row (CQL aggregate over empty input)
	}
	base := len(dst)
	dst = extend(dst, p.out.TupleSize())
	tuple := dst[base:]
	p.out.SetTimestamp(tuple, part.MaxTS)
	for a := range p.aggs {
		p.aggs[a].write(tuple, part.Vals[a], part.Count)
	}
	if p.having != nil && !p.having.EvalTuple(tuple) {
		return dst[:base]
	}
	return dst
}

func (p *Plan) finalizeGrouped(part *WindowPartial, dst []byte) []byte {
	if part.Table == nil {
		return dst
	}
	return p.appendGroupRows(dst, part.Table, part.MaxTS)
}

// appendGroupRows renders one window's group table as output rows, in
// the table's insertion order, growing dst once for the whole window.
// Groups with no live tuples are skipped: a rolling table keeps groups
// whose rows all rolled out, with a stale MaxTS, and groups its row→slot
// pass added for rows that have not entered a window yet. fallbackTS
// stamps groups that carry no timestamp of their own.
func (p *Plan) appendGroupRows(dst []byte, t *HashTable, fallbackTS int64) []byte {
	osz := p.out.TupleSize()
	// Group key bytes land directly after the timestamp: the output schema
	// is [timestamp, group columns..., aggregates...] and the key is the
	// concatenation of the group column values.
	ko, kl, m := p.out.Offset(1), t.keyLen, t.nAggs
	w := len(dst)
	dst = extend(dst, t.Len()*osz)
	for _, s := range t.live {
		i := int(s)
		count := t.counts[i]
		if count <= 0 {
			continue
		}
		tuple := dst[w : w+osz]
		ts := t.maxTS[i]
		if ts == minInt64 {
			ts = fallbackTS
		}
		binary.LittleEndian.PutUint64(tuple, uint64(ts))
		copy(tuple[ko:ko+kl], t.keys[i*kl:(i+1)*kl])
		vals := t.vals[i*m : (i+1)*m]
		for a := range p.aggs {
			p.aggs[a].write(tuple, vals[a], count)
		}
		if p.having != nil && !p.having.EvalTuple(tuple) {
			continue // the next row overwrites the same fields
		}
		w += osz
	}
	return dst[:w]
}

// extend returns dst grown by n zeroed bytes, allocating only when dst
// lacks the capacity (appending a fresh make allocates under -race).
func extend(dst []byte, n int) []byte {
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	clear(dst[l:])
	return dst
}

// write stores the aggregate's output value for a group or window with
// accumulator val over count tuples: the count itself, val/count for avg,
// else val, converted to the output field's type.
func (spec *aggSpec) write(tuple []byte, val float64, count int64) {
	out := tuple[spec.outOff:]
	switch spec.fn {
	case query.Count:
		binary.LittleEndian.PutUint64(out, uint64(count))
		return
	case query.Avg:
		val /= float64(count)
	}
	switch spec.outTyp {
	case schema.Int32:
		binary.LittleEndian.PutUint32(out, uint32(int32(val)))
	case schema.Int64:
		binary.LittleEndian.PutUint64(out, uint64(int64(val)))
	case schema.Float32:
		binary.LittleEndian.PutUint32(out, math.Float32bits(float32(val)))
	case schema.Float64:
		binary.LittleEndian.PutUint64(out, math.Float64bits(val))
	}
}
