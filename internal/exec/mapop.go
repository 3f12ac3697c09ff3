package exec

// mapBlock is the number of tuples processMap filters and compacts at a
// time. A block's tuples and selection vectors stay in cache while every
// node of a deep predicate tree passes over them: evaluated a whole 1 MiB
// task at a time, guarded selections of 10, 64 and 500 predicates (Fig.
// 16's query, guard passing) ran 1.9–2.3× slower on one core.
const mapBlock = 1024

// processMap runs projection/selection over a batch. These operators are
// stateless and use IStream semantics, so the window definition does not
// influence the output (which is why Fig. 11a is flat).
//
// For each block of the batch, a batch predicate evaluation fills the
// selection vector, then writeOutBatch compacts the selected rows
// column-at-a-time.
func (p *Plan) processMap(in Batch, res *TaskResult) {
	tsz := p.in[0].TupleSize()
	n := len(in.Data) / tsz
	sc := p.getScratch()
	for lo := 0; lo < n; lo += mapBlock {
		hi := min(lo+mapBlock, n)
		blk := Batch{Data: in.Data[lo*tsz : hi*tsz]}
		sel, all := p.filterSel(sc, blk, tsz, hi-lo)
		res.Stream = p.writeOutBatch(res.Stream, blk.Data, tsz, hi-lo, sel, all, sc)
	}
	p.putScratch(sc)
}
