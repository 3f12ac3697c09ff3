package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"saber/internal/schema"
)

// This file is the benchmark's oracle: a naive evaluator for the four query
// shapes the workloads use. It materialises every window from the paper's §2
// semantics — window k of ω(size, slide) holds tuples [k·slide, k·slide+size)
// of the stream — with no tasks, fragments, columns or incremental state, and
// shares no code with internal/exec. Sums accumulate in float64; the pool's a1
// values are multiples of 1/64, so they are exact in any order.

// input is one stream as the generator sends it: tuple i is pool tuple
// (i + off) mod poolTuples with its timestamp replaced by i.
type input struct {
	pool []byte
	off  int
}

func (in input) tuple(i int64) []byte {
	t := (i + int64(in.off)) % poolTuples
	return in.pool[t*tupleSize : (t+1)*tupleSize]
}

func (in input) a1(i int64) float32 { return math.Float32frombits(le.Uint32(in.tuple(i)[offA1:])) }
func (in input) a2(i int64) int32   { return int32(le.Uint32(in.tuple(i)[offA2:])) }
func (in input) a3(i int64) int32   { return int32(le.Uint32(in.tuple(i)[offA3:])) }

// selectPasses is SELECT_10's predicate: a3 < 512/(i+1) for some i in 0..9.
func selectPasses(a3 int32) bool {
	for i := int32(0); i < 10; i++ {
		if a3 < 512/(i+1) {
			return true
		}
	}
	return false
}

// joinMatches is the band predicate of join-band.
func joinMatches(a, b int32) bool { return a < b && b < a+joinBand }

// reference produces a query's expected output over n tuples per input,
// one unit at a time, in the order the engine must emit them. A unit is one
// window's rows for aggregates and joins (in canonical byte order, because
// the engine's order inside a window depends on hash layout and task cuts)
// and a run of rows for maps.
type reference struct {
	q   querySpec
	in  [2]input
	n   int64
	out *schema.Schema
	pos int64 // next window (aggregate, join) or next input tuple (maps)
	buf []byte
}

func newReference(q querySpec, out *schema.Schema, in [2]input, n int64) *reference {
	return &reference{q: q, in: in, n: n, out: out}
}

// windowed reports whether units are windows that need canonical ordering.
func (r *reference) windowed() bool { return r.q.shape == shapeAgg || r.q.shape == shapeJoin }

func (r *reference) row() []byte {
	base := len(r.buf)
	r.buf = append(r.buf, make([]byte, r.out.TupleSize())...)
	return r.buf[base:]
}

// next returns the next unit's bytes, or nil at the end of the stream. The
// slice is valid until the following call.
func (r *reference) next() []byte {
	for {
		r.buf = r.buf[:0]
		var more bool
		switch r.q.shape {
		case shapeSelect, shapeProj:
			more = r.nextMap()
		case shapeAgg:
			more = r.nextAgg()
		case shapeJoin:
			more = r.nextJoin()
		}
		if !more {
			return nil
		}
		if len(r.buf) > 0 {
			if r.windowed() {
				sortRows(r.buf, r.out.TupleSize())
			}
			return r.buf
		}
	}
}

// nextMap evaluates the next run of input tuples of a selection or
// projection: IStream, one output row per qualifying input tuple.
func (r *reference) nextMap() bool {
	if r.pos >= r.n {
		return false
	}
	end := r.pos + 1024
	if end > r.n {
		end = r.n
	}
	in := r.in[0]
	for i := r.pos; i < end; i++ {
		if r.q.shape == shapeSelect {
			if selectPasses(in.a3(i)) {
				// The timestamp bytes are not read: the generator may be
				// stamping this pool tuple for a later cycle right now.
				row := r.row()
				le.PutUint64(row[offTS:], uint64(i))
				copy(row[offA1:], in.tuple(i)[offA1:])
			}
			continue
		}
		row := r.row()
		r.out.SetTimestamp(row, i)
		for p := 0; p < r.q.projections; p++ {
			r.out.WriteFloat(row, 1+p, float64(in.a1(i))*3+float64(p))
		}
	}
	r.pos = end
	return true
}

// nextAgg evaluates window r.pos of a count-window aggregate. A window that
// the end of the stream cuts short is still emitted (the engine flushes open
// windows at Drain), with the tuples it has.
func (r *reference) nextAgg() bool {
	start := r.pos * r.q.slide
	if start >= r.n {
		return false
	}
	end := start + r.q.size
	if end > r.n {
		end = r.n
	}
	in := r.in[0]
	if !r.q.grouped {
		sum := 0.0
		for i := start; i < end; i++ {
			sum += float64(in.a1(i))
		}
		row := r.row()
		r.out.SetTimestamp(row, end-1)
		r.out.WriteFloat(row, 1, sum/float64(end-start))
	} else {
		type acc struct {
			count, maxTS int64
			sum          float64
		}
		groups := map[int32]*acc{}
		for i := start; i < end; i++ {
			g := groups[in.a2(i)]
			if g == nil {
				g = &acc{}
				groups[in.a2(i)] = g
			}
			g.count++
			g.sum += float64(in.a1(i))
			g.maxTS = i
		}
		for key, g := range groups {
			row := r.row()
			r.out.SetTimestamp(row, g.maxTS)
			r.out.WriteInt32(row, 1, key)
			r.out.WriteInt64(row, 2, g.count)
			r.out.WriteFloat(row, 3, g.sum)
		}
	}
	r.pos++
	return true
}

// nextJoin evaluates tumbling window r.pos of the band join: the cross
// product of the two inputs' windows, filtered.
func (r *reference) nextJoin() bool {
	start := r.pos * r.q.size
	if start >= r.n {
		return false
	}
	end := start + r.q.size
	if end > r.n {
		end = r.n
	}
	a, b := r.in[0], r.in[1]
	for i := start; i < end; i++ {
		for j := start; j < end; j++ {
			if joinMatches(a.a3(i), b.a3(j)) {
				row := r.row()
				r.out.SetTimestamp(row, i)
				r.out.WriteInt32(row, 1, a.a3(i))
				r.out.WriteInt64(row, 2, j)
			}
		}
	}
	r.pos++
	return true
}

// rowSorter orders fixed-size rows by their bytes.
type rowSorter struct {
	b   []byte
	sz  int
	tmp []byte
}

func (s rowSorter) Len() int { return len(s.b) / s.sz }
func (s rowSorter) Less(i, j int) bool {
	return bytes.Compare(s.b[i*s.sz:(i+1)*s.sz], s.b[j*s.sz:(j+1)*s.sz]) < 0
}
func (s rowSorter) Swap(i, j int) {
	copy(s.tmp, s.b[i*s.sz:(i+1)*s.sz])
	copy(s.b[i*s.sz:(i+1)*s.sz], s.b[j*s.sz:(j+1)*s.sz])
	copy(s.b[j*s.sz:(j+1)*s.sz], s.tmp)
}

func sortRows(b []byte, sz int) { sort.Sort(rowSorter{b, sz, make([]byte, sz)}) }

// checker is the verify phase's sink: it compares the engine's output
// stream byte for byte with the reference as it arrives, pulling reference
// units on demand so neither stream is held in memory. It runs under the
// query's drain lock.
type checker struct {
	ref  *reference
	osz  int
	want []byte // unmatched rest of the current reference unit
	pend []byte // engine bytes of a window not yet complete
	rows int64
	// flip, when non-zero, corrupts that output byte before comparing:
	// the mutation self-test's proof that a wrong byte is caught.
	flip int64
	seen int64
	err  error
}

func (c *checker) onResult(rows []byte) {
	if c.err != nil {
		return
	}
	if c.flip > 0 && c.seen <= c.flip && c.flip < c.seen+int64(len(rows)) {
		rows = append([]byte(nil), rows...)
		rows[c.flip-c.seen] ^= 1
	}
	c.seen += int64(len(rows))
	c.rows += int64(len(rows) / c.osz)
	if c.ref.windowed() {
		c.pend = append(c.pend, rows...)
		for len(c.pend) > 0 && c.err == nil {
			if c.want == nil {
				if c.want = c.ref.next(); c.want == nil {
					c.err = fmt.Errorf("engine emitted %d bytes past the reference's end", len(c.pend))
					return
				}
			}
			if len(c.pend) < len(c.want) {
				return
			}
			got := c.pend[:len(c.want)]
			sortRows(got, c.osz)
			if !bytes.Equal(got, c.want) {
				c.err = fmt.Errorf("window %d differs from the reference", c.ref.pos-1)
				return
			}
			c.pend = c.pend[len(c.want):]
			c.want = nil
		}
		return
	}
	for len(rows) > 0 {
		if len(c.want) == 0 {
			if c.want = c.ref.next(); c.want == nil {
				c.err = fmt.Errorf("engine emitted %d bytes past the reference's end", len(rows))
				return
			}
		}
		n := len(rows)
		if n > len(c.want) {
			n = len(c.want)
		}
		if !bytes.Equal(rows[:n], c.want[:n]) {
			c.err = fmt.Errorf("output differs from the reference near input tuple %d", c.ref.pos)
			return
		}
		rows, c.want = rows[n:], c.want[n:]
	}
}

// finish reports the first mismatch, or output the engine never produced.
func (c *checker) finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.pend) > 0 || len(c.want) > 0 {
		return fmt.Errorf("engine output ends inside a reference unit")
	}
	if c.ref.next() != nil {
		return fmt.Errorf("engine output ends before the reference's (after %d rows)", c.rows)
	}
	return nil
}

// rowCounter gives the expected number of output rows for any tuple count
// that is a multiple of paneTuples, without evaluating the stream again: the
// replayed pool repeats, so per-pane summaries of one pool cycle suffice.
// The summaries are made with the same naive predicates as the reference.
type rowCounter struct {
	q querySpec
	// passPrefix[p] counts tuples of panes [0, p) passing the selection.
	passPrefix []int64
	// groupMask[p] has bit g set when group g occurs in pane p.
	groupMask []uint64
	// joinPrefix[w] counts the join rows of windows [0, w) of one cycle.
	joinPrefix []int64
}

// paneTuples divides every frame, slide and window of every workload.
const (
	paneTuples = 64
	poolPanes  = poolTuples / paneTuples
)

func newRowCounter(q querySpec, in [2]input) *rowCounter {
	c := &rowCounter{q: q}
	switch {
	case q.shape == shapeSelect:
		c.passPrefix = make([]int64, poolPanes+1)
		for p := 0; p < poolPanes; p++ {
			n := int64(0)
			for i := int64(p) * paneTuples; i < int64(p+1)*paneTuples; i++ {
				if selectPasses(in[0].a3(i)) {
					n++
				}
			}
			c.passPrefix[p+1] = c.passPrefix[p] + n
		}
	case q.shape == shapeAgg && q.grouped:
		c.groupMask = make([]uint64, poolPanes)
		for p := 0; p < poolPanes; p++ {
			for i := int64(p) * paneTuples; i < int64(p+1)*paneTuples; i++ {
				c.groupMask[p] |= 1 << uint(in[0].a2(i))
			}
		}
	case q.shape == shapeJoin:
		wins := poolTuples / q.size
		c.joinPrefix = make([]int64, wins+1)
		for w := int64(0); w < wins; w++ {
			n := int64(0)
			for i := w * q.size; i < (w+1)*q.size; i++ {
				for j := w * q.size; j < (w+1)*q.size; j++ {
					if joinMatches(in[0].a3(i), in[1].a3(j)) {
						n++
					}
				}
			}
			c.joinPrefix[w+1] = c.joinPrefix[w] + n
		}
	}
	return c
}

// prefixAt extends a one-cycle prefix table to any number of units.
func prefixAt(prefix []int64, units int64) int64 {
	per := int64(len(prefix) - 1)
	return units/per*prefix[per] + prefix[units%per]
}

// rows is the output row count for n tuples per input, end-of-stream flush
// included.
func (c *rowCounter) rows(n int64) int64 {
	q := c.q
	switch q.shape {
	case shapeSelect:
		return prefixAt(c.passPrefix, n/paneTuples)
	case shapeProj:
		return n
	case shapeJoin:
		return prefixAt(c.joinPrefix, n/q.size)
	}
	wins := (n + q.slide - 1) / q.slide // every window that starts before n
	if !q.grouped {
		return wins
	}
	panes := n / paneTuples
	perWin := q.size / paneTuples
	total := int64(0)
	for k := int64(0); k < wins; k++ {
		first := k * q.slide / paneTuples
		mask := uint64(0)
		for p := first; p < first+perWin && p < panes; p++ {
			mask |= c.groupMask[p%poolPanes]
		}
		total += int64(bits.OnesCount64(mask))
	}
	return total
}
