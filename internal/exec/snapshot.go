package exec

import "sort"

// Checkpoint support: deep copies of the assembler's cross-task window
// state. The checkpoint coordinator (internal/ckpt) serialises these
// copies outside the result stage's locks, so they must share no storage
// with the live assembler or any pooled TaskResult.

// Clone returns a deep copy of the table: same capacity, slot layout and
// insertion order, no shared storage.
func (h *HashTable) Clone() *HashTable {
	if h == nil {
		return nil
	}
	c := &HashTable{
		keyLen: h.keyLen,
		nAggs:  h.nAggs,
		cap:    h.cap,
		live:   append([]int32(nil), h.live...),
		state:  append([]int32(nil), h.state...),
		keys:   append([]byte(nil), h.keys...),
		counts: append([]int64(nil), h.counts...),
		vals:   append([]float64(nil), h.vals...),
		maxTS:  append([]int64(nil), h.maxTS...),
	}
	return c
}

// Clone returns a deep copy of the partial, safe to retain and mutate
// independently of the original (including its group table).
func (p WindowPartial) Clone() WindowPartial {
	c := p
	c.Vals = append([]float64(nil), p.Vals...)
	c.Data = append([]byte(nil), p.Data...)
	c.AData = append([]byte(nil), p.AData...)
	c.BData = append([]byte(nil), p.BData...)
	c.Table = p.Table.Clone()
	return c
}

// Export returns deep copies of every still-open window partial, sorted
// by window index. Called by the checkpoint coordinator under the result
// stage's drain lock; the copies may outlive the assembler.
func (a *Assembler) Export() []WindowPartial {
	if len(a.pending) == 0 {
		return nil
	}
	out := make([]WindowPartial, 0, len(a.pending))
	for _, p := range a.pending {
		out = append(out, p.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out
}

// Restore replaces the assembler's pending windows with ps, taking
// ownership of the slice elements (the caller must not reuse them). Used
// when rebuilding an engine from a checkpoint; the assembler must not
// have consumed any results yet.
func (a *Assembler) Restore(ps []WindowPartial) {
	a.pending = make(map[int64]*WindowPartial, len(ps))
	for i := range ps {
		p := ps[i]
		a.pending[p.Window] = &p
	}
}
