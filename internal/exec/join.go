package exec

import (
	"saber/internal/expr"
	"saber/internal/window"
)

// JoinPair describes one window's fragment pair within a join task, with
// per-side open/close state derived from each side's stream horizon —
// not from fragment presence, because with rate-mismatched or lagging
// inputs a window may be covered by only one side's batch, and it may
// close on the two sides in different tasks.
type JoinPair struct {
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

// JoinPairs computes the window fragment pairs of a two-input task, in
// window order. Exported for the GPGPU kernel, which runs the same
// pairing host-side (window computation stays on the CPU, §5.4).
func (p *Plan) JoinPairs(in [2]Batch) []JoinPair {
	va := newTSView(p.in[0], in[0].Data)
	vb := newTSView(p.in[1], in[1].Data)
	fragsA := p.windows[0].Fragments(nil, va.Len(), va, in[0].Ctx)
	fragsB := p.windows[1].Fragments(nil, vb.Len(), vb, in[1].Ctx)
	return p.pairFrags(nil, fragsA, fragsB, in, va, vb)
}

// pairFrags merges two fragment lists into window pairs, appending to
// dst. The CPU path feeds it scratch-pooled fragment and pair buffers so
// steady state allocates nothing.
func (p *Plan) pairFrags(dst []JoinPair, fragsA, fragsB []window.Fragment, in [2]Batch, va, vb tsView) []JoinPair {
	lastA, lastB := int64(window.NoPrev), int64(window.NoPrev)
	if va.Len() > 0 {
		lastA = va.At(va.Len() - 1)
	}
	if vb.Len() > 0 {
		lastB = vb.At(vb.Len() - 1)
	}

	i, j := 0, 0
	for i < len(fragsA) || j < len(fragsB) {
		var pr JoinPair
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

// joinPartial builds the WindowPartial for one pair (shared with the
// GPGPU kernel, which parallelises the calls across windows).
func (p *Plan) joinPartial(pr JoinPair, in [2]Batch, asz, bsz int, va, vb tsView, sc *scratch) WindowPartial {
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

// JoinPartial is the exported form used by the GPGPU kernel.
func (p *Plan) JoinPartial(pr JoinPair, in [2]Batch) WindowPartial {
	sa, sb := p.in[0], p.in[1]
	sc := p.getScratch()
	defer p.putScratch(sc)
	return p.joinPartial(pr, in, sa.TupleSize(), sb.TupleSize(),
		newTSView(sa, in[0].Data), newTSView(sb, in[1].Data), sc)
}

// joinCross appends to dst the projected join result of every tuple pair
// (a, b) with a from aData and b from bData that satisfies the predicate,
// in (a, b) scan order. sc may be nil (assembly-time callers); batch-time
// callers pass their task scratch.
//
// It evaluates the predicate for one left tuple against the whole right
// fragment per inner pass. When the predicate carries an integer equality
// conjunct, the right fragment is bucketed by key first, so each left
// tuple only tests its key-equal candidates; candidate chains are built in
// ascending order so the output keeps (a, b) scan order.
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
	if p.eqJoin.ok {
		// Bucket the right fragment by key: chains are threaded back to
		// front so each key's candidates come out in ascending order.
		if sc.eqHead == nil {
			sc.eqHead = make(map[int64]int32, nb)
		} else {
			clear(sc.eqHead)
		}
		if cap(sc.eqNext) < nb {
			sc.eqNext = make([]int32, nb)
		}
		next := sc.eqNext[:nb]
		for bi := nb - 1; bi >= 0; bi-- {
			k := readIntKey(bData[bi*bsz:], p.eqJoin.bOff, p.eqJoin.bTyp)
			if h, ok := sc.eqHead[k]; ok {
				next[bi] = h
			} else {
				next[bi] = -1
			}
			sc.eqHead[k] = int32(bi)
		}
		for ao := 0; ao+asz <= len(aData); ao += asz {
			a := aData[ao : ao+asz]
			k := readIntKey(a, p.eqJoin.aOff, p.eqJoin.aTyp)
			bi, ok := sc.eqHead[k]
			if !ok {
				continue
			}
			for ; bi >= 0; bi = next[bi] {
				b := bData[int(bi)*bsz : int(bi)*bsz+bsz]
				// Re-test the full predicate: the equality conjunct is
				// redundant on candidates, the remaining conjuncts are not.
				if p.joinPred.Eval(a, b) {
					dst = p.writeOut(dst, a, b)
				}
			}
		}
		return dst
	}
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
