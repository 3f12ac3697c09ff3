package exec

import (
	"cmp"
	"slices"

	"saber/internal/expr"
	"saber/internal/window"
)

// joinPair describes one window's fragment pair within a join task, with
// per-side open/close state derived from each side's stream horizon —
// not from fragment presence, because with rate-mismatched or lagging
// inputs a window may be covered by only one side's batch, and it may
// close on the two sides in different tasks.
type joinPair struct {
	Window       int64
	FA, FB       window.Fragment
	HaveA, HaveB bool
	// Opened reports that no earlier task contributed to this window on
	// either side. ClosedA/ClosedB report that the respective side's
	// stream has passed the window's end (at or before this task).
	Opened           bool
	ClosedA, ClosedB bool
}

// sideOpened reports whether no tuple before this batch belongs to
// window k on a stream with the given batch context.
func sideOpened(d window.Def, ctx window.Context, k int64) bool {
	switch d.Kind {
	case window.Count:
		return ctx.FirstIndex <= d.Start(k)
	case window.Time:
		return ctx.PrevTimestamp == window.NoPrev || ctx.PrevTimestamp < d.Start(k)
	}
	return ctx.FirstIndex == 0 && ctx.PrevTimestamp == window.NoPrev
}

// sideClosed reports whether the stream has passed window k's end after
// consuming this batch (n tuples, last timestamp lastTS; for an empty
// batch lastTS falls back to the context's previous timestamp).
func sideClosed(d window.Def, ctx window.Context, n int, lastTS int64, k int64) bool {
	switch d.Kind {
	case window.Count:
		return ctx.FirstIndex+int64(n) >= d.End(k)
	case window.Time:
		if n == 0 {
			lastTS = ctx.PrevTimestamp
		}
		return lastTS != window.NoPrev && lastTS >= d.End(k)
	}
	return false
}

// joinPairs computes the window fragment pairs of a two-input task, in
// window order.
func (p *Plan) joinPairs(in [2]Batch) []joinPair {
	va := newTSView(p.in[0], in[0].Data)
	vb := newTSView(p.in[1], in[1].Data)
	fragsA := p.windows[0].Fragments(nil, va.Len(), va, in[0].Ctx)
	fragsB := p.windows[1].Fragments(nil, vb.Len(), vb, in[1].Ctx)
	return p.pairFrags(nil, fragsA, fragsB, in, va, vb)
}

// pairFrags merges two fragment lists into window pairs, appending to
// dst. The CPU path feeds it scratch-pooled fragment and pair buffers so
// steady state allocates nothing.
func (p *Plan) pairFrags(dst []joinPair, fragsA, fragsB []window.Fragment, in [2]Batch, va, vb tsView) []joinPair {
	lastA, lastB := int64(window.NoPrev), int64(window.NoPrev)
	if va.Len() > 0 {
		lastA = va.At(va.Len() - 1)
	}
	if vb.Len() > 0 {
		lastB = vb.At(vb.Len() - 1)
	}

	i, j := 0, 0
	for i < len(fragsA) || j < len(fragsB) {
		var pr joinPair
		switch {
		case i < len(fragsA) && (j >= len(fragsB) || fragsA[i].Window <= fragsB[j].Window):
			pr.FA, pr.HaveA = fragsA[i], true
			pr.Window = fragsA[i].Window
			if j < len(fragsB) && fragsB[j].Window == pr.Window {
				pr.FB, pr.HaveB = fragsB[j], true
				j++
			}
			i++
		default:
			pr.FB, pr.HaveB = fragsB[j], true
			pr.Window = fragsB[j].Window
			j++
		}
		pr.Opened = sideOpened(p.windows[0], in[0].Ctx, pr.Window) &&
			sideOpened(p.windows[1], in[1].Ctx, pr.Window)
		pr.ClosedA = sideClosed(p.windows[0], in[0].Ctx, va.Len(), lastA, pr.Window)
		pr.ClosedB = sideClosed(p.windows[1], in[1].Ctx, vb.Len(), lastB, pr.Window)
		dst = append(dst, pr)
	}
	return dst
}

// processJoin runs the windowed θ-join batch operator function (paper
// §5.3, following Kang et al.). The fragment result for window k contains
// the θ-join of the two fragments, plus — for windows still open on
// either side — the raw fragment data of both sides, so the assembly
// operator function can join tuple pairs that span query tasks.
func (p *Plan) processJoin(in [2]Batch, res *TaskResult) {
	sa, sb := p.in[0], p.in[1]
	va := newTSView(sa, in[0].Data)
	vb := newTSView(sb, in[1].Data)
	sc := p.getScratch()
	defer p.putScratch(sc)
	sc.frags = p.windows[0].Fragments(sc.frags[:0], va.Len(), va, in[0].Ctx)
	sc.fragsB = p.windows[1].Fragments(sc.fragsB[:0], vb.Len(), vb, in[1].Ctx)
	sc.pairs = p.pairFrags(sc.pairs[:0], sc.frags, sc.fragsB, in, va, vb)
	for _, pr := range sc.pairs {
		part := p.joinPartial(pr, in, sa.TupleSize(), sb.TupleSize(), va, vb, sc)
		res.Partials = append(res.Partials, part)
	}
}

// joinPartial builds the WindowPartial for one pair.
func (p *Plan) joinPartial(pr joinPair, in [2]Batch, asz, bsz int, va, vb tsView, sc *scratch) WindowPartial {
	part := WindowPartial{
		Window:     pr.Window,
		OpenedHere: pr.Opened,
		ClosedHere: pr.ClosedA && pr.ClosedB,
		MaxTS:      minInt64,
	}
	part.ClosedSides[0] = pr.ClosedA
	part.ClosedSides[1] = pr.ClosedB
	var aData, bData []byte
	if pr.HaveA {
		aData = in[0].Data[pr.FA.Start*asz : pr.FA.End*asz]
		if ts := fragLastTS(va, pr.FA.Start, pr.FA.End); ts > part.MaxTS {
			part.MaxTS = ts
		}
	}
	if pr.HaveB {
		bData = in[1].Data[pr.FB.Start*bsz : pr.FB.End*bsz]
		if ts := fragLastTS(vb, pr.FB.Start, pr.FB.End); ts > part.MaxTS {
			part.MaxTS = ts
		}
	}
	part.Data = p.joinCross(nil, aData, bData, sc)
	if !(part.OpenedHere && part.ClosedHere) {
		// Keep raw fragments for cross-task pairs during assembly —
		// needed by every partial that will be merged, including the
		// one that closes the window.
		part.AData = append(part.AData, aData...)
		part.BData = append(part.BData, bData...)
	}
	return part
}

// joinCross appends to dst the projected join result of every tuple pair
// (a, b) with a from aData and b from bData that satisfies the predicate,
// in (a, b) scan order. sc may be nil (assembly-time callers); batch-time
// callers pass their task scratch.
//
// Without a key range (Plan.keyRange) it runs a nested loop: one left
// tuple against the whole right fragment per batch-evaluated inner pass.
// With one, it probes a key-pointer array instead (after StreamBox-HBM):
// the right fragment's (key, index) pairs sorted by key, where each left
// tuple with key k binary-searches k+lo and scans to k+hi. The candidates
// are re-sorted by index, which keeps the nested loop's output order, and
// re-tested against the full predicate — unless the band is the whole
// predicate and k is far enough from the int64 limits that nothing
// overflows (keyRange.exact), when every candidate matches.
//
// k+lo and k+hi wrap on overflow exactly as expr's integer arithmetic
// does. The conjunct that set lo compares y against t = wrap(k+c), so
// every match has y ≥ wrap(k+lo) (for y > t, lo = c+1 and y ≥ t+1 unless
// t is MaxInt64, when nothing matches); likewise y ≤ wrap(k+hi). The scan
// range thus holds every match even across the int64 limits, so no left
// tuple needs a nested-loop fallback; it is empty when the bounds cross.
func (p *Plan) joinCross(dst, aData, bData []byte, sc *scratch) []byte {
	if len(aData) == 0 || len(bData) == 0 {
		return dst
	}
	asz, bsz := p.in[0].TupleSize(), p.in[1].TupleSize()
	if sc == nil {
		sc = p.getScratch()
		defer p.putScratch(sc)
	}
	nb := len(bData) / bsz
	kr := &p.keyRange
	if !kr.ok {
		for ao := 0; ao+asz <= len(aData); ao += asz {
			a := aData[ao : ao+asz]
			sc.selJ = p.joinPred.EvalBatch(&sc.vec, sc.selJ,
				expr.BatchInput{L: a, LStride: 0, R: bData, RStride: bsz, N: nb})
			for _, bi := range sc.selJ {
				dst = p.writeOut(dst, a, bData[int(bi)*bsz:int(bi)*bsz+bsz])
			}
		}
		return dst
	}
	kpa := sc.kpa[:0]
	for bi := 0; bi < nb; bi++ {
		kpa = append(kpa, keyPtr{key: kr.b.read(bData[bi*bsz:]), idx: int32(bi)})
	}
	sc.kpaPacked = sortKPA(kpa, sc.kpaPacked)
	sc.kpa = kpa
	for ao := 0; ao+asz <= len(aData); ao += asz {
		a := aData[ao : ao+asz]
		k := kr.a.read(a)
		from, to := k+kr.lo, k+kr.hi
		i, j := 0, len(kpa)
		for i < j {
			h := int(uint(i+j) >> 1)
			if kpa[h].key < from {
				i = h + 1
			} else {
				j = h
			}
		}
		cand := sc.selJ[:0]
		for ; i < len(kpa) && kpa[i].key <= to; i++ {
			cand = append(cand, kpa[i].idx)
		}
		if kr.lo != kr.hi {
			slices.Sort(cand)
		}
		sc.selJ = cand
		exact := kr.exact && k >= kr.kMin && k <= kr.kMax
		for _, bi := range cand {
			b := bData[int(bi)*bsz : int(bi)*bsz+bsz]
			if exact || p.joinPred.Eval(a, b) {
				dst = p.writeOut(dst, a, b)
			}
		}
	}
	return dst
}

// keyPtr is one key-pointer array entry: a right tuple's join key and its
// index within the fragment.
type keyPtr struct {
	key int64
	idx int32
}

// sortKPA sorts kpa by (key, idx). When the keys span less than 2^32 —
// always for Int32 columns — it packs each entry into one integer,
// (key−min)<<32 | idx, and sorts those without a comparator call per
// comparison. packed is reused scratch; the grown buffer is returned.
// On 128-tuple fragments of Int32 keys the packed sort makes the whole
// band-join kernel about 1.4× faster than SortFunc alone (2-vCPU Xeon).
func sortKPA(kpa []keyPtr, packed []uint64) []uint64 {
	lo, hi := kpa[0].key, kpa[0].key
	for _, e := range kpa[1:] {
		lo, hi = min(lo, e.key), max(hi, e.key)
	}
	if uint64(hi-lo) >= 1<<32 {
		slices.SortFunc(kpa, func(x, y keyPtr) int {
			if x.key != y.key {
				return cmp.Compare(x.key, y.key)
			}
			return cmp.Compare(x.idx, y.idx)
		})
		return packed
	}
	packed = packed[:0]
	for _, e := range kpa {
		packed = append(packed, uint64(e.key-lo)<<32|uint64(e.idx))
	}
	slices.Sort(packed)
	for i, v := range packed {
		kpa[i] = keyPtr{key: lo + int64(v>>32), idx: int32(uint32(v))}
	}
	return packed
}
