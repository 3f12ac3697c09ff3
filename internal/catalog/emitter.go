package catalog

import (
	"sync"

	"saber/internal/bql"
)

// emitter applies the stream's relation-to-stream operator (paper §2.4)
// to the engine's ordered result chunks.
//
// For non-aggregation queries the engine already emits with IStream
// semantics (each output tuple appears once, when its window admits it),
// so IStream and RStream are the identity and DStream is empty — a
// selection never deletes a previously emitted tuple.
//
// For aggregation queries the engine emits RStream semantics (one result
// relation per window), so RStream is the identity, and IStream/DStream
// are computed as the multiset difference between consecutive result
// batches: IStream emits rows whose multiplicity grew since the previous
// batch, DStream rows whose multiplicity shrank. The batch granularity
// is the engine's result chunk, which aggregation assembly aligns to
// window results; chunks spanning several windows diff coarser than the
// per-window ideal — a documented approximation (DESIGN.md §13).
type emitter struct {
	kind  bql.Emitter
	isAgg bool
	tsz   int

	mu   sync.Mutex
	prev map[string]int // multiset of the previous batch's rows
	ord  []string       // previous batch's rows in arrival order (DStream)
}

func newEmitter(kind bql.Emitter, isAgg bool, tupleSize int) *emitter {
	return &emitter{kind: kind, isAgg: isAgg, tsz: tupleSize}
}

// apply transforms one ordered result chunk. Runs on the engine's result
// goroutine; returns nil when the operator emits nothing for this chunk.
func (em *emitter) apply(rows []byte) []byte {
	if !em.isAgg {
		if em.kind == bql.EmitDStream {
			return nil
		}
		return rows
	}
	if em.kind == bql.EmitRStream {
		return rows
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	cur := make(map[string]int, len(em.prev))
	ord := make([]string, 0, len(rows)/em.tsz)
	for off := 0; off+em.tsz <= len(rows); off += em.tsz {
		r := string(rows[off : off+em.tsz])
		cur[r]++
		ord = append(ord, r)
	}
	var out []byte
	switch em.kind {
	case bql.EmitIStream:
		// Rows whose multiplicity grew, emitted in current-batch order:
		// the occurrences beyond the previous batch's count.
		seen := make(map[string]int, len(cur))
		for _, r := range ord {
			seen[r]++
			if seen[r] > em.prev[r] {
				out = append(out, r...)
			}
		}
	case bql.EmitDStream:
		// Rows whose multiplicity shrank, in previous-batch order.
		seen := make(map[string]int, len(em.prev))
		for _, r := range em.ord {
			seen[r]++
			if seen[r] > cur[r] {
				out = append(out, r...)
			}
		}
	}
	em.prev, em.ord = cur, ord
	return out
}
