package exec

import "saber/internal/window"

// processUDF runs a user-defined operator function's batch stage: the
// batch's window fragments are computed exactly as for relational
// operators, and the UDF's fragment function produces each fragment's
// opaque partial.
func (p *Plan) processUDF(in [2]Batch, res *TaskResult) {
	if p.NumInputs() == 2 {
		for _, pr := range p.joinPairs(in) {
			res.Partials = append(res.Partials, p.udfPartialPair(pr, in))
		}
		return
	}
	view := newTSView(p.in[0], in[0].Data)
	for _, f := range p.windows[0].Fragments(nil, view.Len(), view, in[0].Ctx) {
		res.Partials = append(res.Partials, p.udfPartialSingle(in[0], view, f))
	}
}

// udfPartialPair computes one window's partial for a two-input UDF task.
func (p *Plan) udfPartialPair(pr joinPair, in [2]Batch) WindowPartial {
	sa, sb := p.in[0], p.in[1]
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
		aData = in[0].Data[pr.FA.Start*sa.TupleSize() : pr.FA.End*sa.TupleSize()]
		part.MaxTS = fragLastTS(newTSView(sa, in[0].Data), pr.FA.Start, pr.FA.End)
	}
	if pr.HaveB {
		bData = in[1].Data[pr.FB.Start*sb.TupleSize() : pr.FB.End*sb.TupleSize()]
		part.MaxTS = max(part.MaxTS, fragLastTS(newTSView(sb, in[1].Data), pr.FB.Start, pr.FB.End))
	}
	part.Data = p.Q.UDF.ProcessFragment([][]byte{aData, bData})
	return part
}

// udfPartialSingle computes one window fragment's partial for a
// single-input UDF task.
func (p *Plan) udfPartialSingle(in Batch, view tsView, f window.Fragment) WindowPartial {
	tsz := p.in[0].TupleSize()
	part := WindowPartial{
		Window:     f.Window,
		OpenedHere: f.Opens,
		ClosedHere: f.Closes,
		MaxTS:      fragLastTS(view, f.Start, f.End),
	}
	part.Data = p.Q.UDF.ProcessFragment([][]byte{in.Data[f.Start*tsz : f.End*tsz]})
	return part
}

// mergeUDF folds the next partial into the accumulated one.
func (p *Plan) mergeUDF(acc, next *WindowPartial) {
	acc.Data = p.Q.UDF.Merge(acc.Data, next.Data)
	next.Data = nil
}

// finalizeUDF renders a closed window.
func (p *Plan) finalizeUDF(part *WindowPartial, dst []byte) []byte {
	return append(dst, p.Q.UDF.Finalize(part.Data)...)
}
