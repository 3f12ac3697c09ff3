package exec

// processMap runs projection/selection over a batch. These operators are
// stateless and use IStream semantics, so the window definition does not
// influence the output (which is why Fig. 11a is flat).
//
// It mirrors the GPU's two-pass count+compact kernel (§5.4): a batch
// predicate evaluation fills the selection vector, then writeOutBatch
// compacts the selected rows column-at-a-time.
func (p *Plan) processMap(in Batch, res *TaskResult) {
	s := p.in[0]
	tsz := s.TupleSize()
	n := len(in.Data) / tsz
	if n == 0 {
		return
	}
	sc := p.getScratch()
	sel, all := p.filterSel(sc, in, tsz, n)
	res.Stream = p.writeOutBatch(res.Stream, in, tsz, n, sel, all, sc)
	p.putScratch(sc)
}
