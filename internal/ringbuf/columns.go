package ringbuf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

var le = binary.LittleEndian

// ColumnStore mirrors a row ring's retained window as per-column
// contiguous segments: column j holds the bytes of one fixed-width tuple
// field for every retained tuple, packed with stride == field width. The
// store is addressed in absolute, monotonically increasing *tuple*
// indices (the row ring's byte offset divided by the tuple size), so the
// row ring and the column store always describe the same window of the
// stream and are released together.
//
// Like Buffer it is single-writer multi-reader: exactly one goroutine
// appends (the same dispatcher thread that writes the row ring), workers
// read published segments, and the result stage releases. The writer
// publishes by advancing `end` after the column bytes are in place;
// readers only touch [start, end) regions, which both pointers prove
// stable.
//
// Capacity is the row ring's tuple capacity rounded up to a power of two,
// so a tuple range that fits in the row ring always fits here; Append can
// therefore never block as long as Release mirrors the row ring's
// releases (and is called *before* the row release, see Release).
type ColumnStore struct {
	cols   [][]byte // per-column backing arrays, widths[j]*capTuples bytes
	offs   []int    // byte offset of column j within the row tuple
	widths []int    // element width of column j (4 or 8)
	tsz    int      // row tuple size in bytes
	mask   int64    // capTuples-1 (capTuples is a power of two)

	// Absolute tuple indices. end is advanced only by the writer; start
	// only by Release.
	start atomic.Int64
	end   atomic.Int64

	// wraps counts appends that crossed the physical end of the backing
	// arrays (a new segment began). All columns wrap at the same tuple
	// index, so one counter covers them all.
	wraps atomic.Int64
}

// NewColumnStore creates a store for tuples of tupleSize bytes whose
// columns live at offs with element widths. capTuples is the row ring's
// tuple capacity; it is rounded up to a power of two internally.
//
// shred selects which columns are materialised (nil means all). A
// deselected column is never shredded: its Views/CopyViews entries stay
// nil and readers fall back to the row ring. The engine passes the
// compiled plan's ColumnsRead set here — projection pushdown to ingest —
// so the dispatcher-thread shred cost scales with the fields the query
// reads, not the schema width.
func NewColumnStore(offs, widths []int, shred []bool, tupleSize, capTuples int) (*ColumnStore, error) {
	if len(offs) != len(widths) || len(offs) == 0 {
		return nil, fmt.Errorf("ringbuf: column layout %d offsets / %d widths", len(offs), len(widths))
	}
	if shred != nil && len(shred) != len(offs) {
		return nil, fmt.Errorf("ringbuf: column shred mask has %d entries for %d columns", len(shred), len(offs))
	}
	if tupleSize <= 0 || capTuples <= 0 {
		return nil, fmt.Errorf("ringbuf: column store needs positive tuple size (%d) and capacity (%d)", tupleSize, capTuples)
	}
	cap2 := 1
	for cap2 < capTuples {
		cap2 <<= 1
	}
	s := &ColumnStore{
		offs:   append([]int(nil), offs...),
		widths: append([]int(nil), widths...),
		tsz:    tupleSize,
		mask:   int64(cap2) - 1,
	}
	s.cols = make([][]byte, len(offs))
	for j, w := range widths {
		if o := offs[j]; o < 0 || w <= 0 || o+w > tupleSize {
			return nil, fmt.Errorf("ringbuf: column %d [off %d, width %d] outside tuple size %d", j, o, w, tupleSize)
		}
		if shred == nil || shred[j] {
			s.cols[j] = make([]byte, w*cap2)
		}
	}
	return s, nil
}

// MustNewColumnStore is like NewColumnStore but panics on error.
func MustNewColumnStore(offs, widths []int, shred []bool, tupleSize, capTuples int) *ColumnStore {
	s, err := NewColumnStore(offs, widths, shred, tupleSize, capTuples)
	if err != nil {
		panic(err)
	}
	return s
}

// Shredded reports whether column j is materialised.
func (s *ColumnStore) Shredded(j int) bool { return s.cols[j] != nil }

// NumCols returns the number of columns.
func (s *ColumnStore) NumCols() int { return len(s.cols) }

// Offset returns the row-tuple byte offset of column j.
func (s *ColumnStore) Offset(j int) int { return s.offs[j] }

// Width returns the element width of column j in bytes.
func (s *ColumnStore) Width(j int) int { return s.widths[j] }

// CapacityTuples returns the per-column capacity in tuples.
func (s *ColumnStore) CapacityTuples() int64 { return s.mask + 1 }

// Start returns the absolute index of the oldest retained tuple.
func (s *ColumnStore) Start() int64 { return s.start.Load() }

// End returns the absolute index one past the newest published tuple.
func (s *ColumnStore) End() int64 { return s.end.Load() }

// Tuples returns the number of retained tuples (segment occupancy).
func (s *ColumnStore) Tuples() int64 { return s.end.Load() - s.start.Load() }

// Wraps returns how many appends started a new physical segment.
func (s *ColumnStore) Wraps() int64 { return s.wraps.Load() }

// ColBytes returns the retained payload bytes of column j (0 when the
// column is not materialised).
func (s *ColumnStore) ColBytes(j int) int64 {
	if s.cols[j] == nil {
		return 0
	}
	return s.Tuples() * int64(s.widths[j])
}

// Append shreds len(rows)/tupleSize row tuples into the column segments
// and publishes them. Only the writer goroutine may call Append, and only
// after the same rows were accepted by the row ring: ring admission is
// the capacity gate, so running out of column space is an invariant
// violation (a missed or misordered Release), not backpressure.
func (s *ColumnStore) Append(rows []byte) {
	if len(rows)%s.tsz != 0 {
		panic(fmt.Sprintf("ringbuf: column append of %d bytes is not a multiple of tuple size %d", len(rows), s.tsz))
	}
	n := int64(len(rows) / s.tsz)
	if n == 0 {
		return
	}
	end := s.end.Load()
	if end+n-s.start.Load() > s.mask+1 {
		panic(fmt.Sprintf("ringbuf: column append of %d tuples overflows [%d,%d) cap %d — release ordering broken",
			n, s.start.Load(), end, s.mask+1))
	}
	// Split at the physical boundary once; within a run every column is a
	// dense stride-w write.
	pos := end & s.mask
	first := n
	if rem := s.mask + 1 - pos; first > rem {
		first = rem
	}
	s.shred(rows, 0, int(first), pos)
	if first < n {
		s.shred(rows, int(first), int(n-first), 0)
		s.wraps.Add(1)
	}
	// Publish after the bytes are in place.
	s.end.Store(end + n)
}

// shred copies count tuples starting at row index rowOff into physical
// tuple position pos of every column. It runs on the dispatcher thread
// under the ingest lock, so its rate bounds end-to-end ingest: the inner
// loops keep a running source offset instead of re-multiplying, unroll
// four tuples per iteration, and pack pairs of 4-byte elements into one
// 8-byte store (dst is always 8-byte aligned for even positions because
// capacities are powers of two).
func (s *ColumnStore) shred(rows []byte, rowOff, count int, pos int64) {
	tsz := s.tsz
	for j, col := range s.cols {
		if col == nil {
			continue // deselected: readers use the row ring
		}
		o, w := s.offs[j], s.widths[j]
		src := rows[rowOff*tsz+o:]
		switch w {
		case 8:
			dst := col[pos*8 : pos*8+int64(count)*8]
			so, t := 0, 0
			for ; t+4 <= count; t += 4 {
				d := dst[t*8 : t*8+32]
				le.PutUint64(d[0:], le.Uint64(src[so:]))
				le.PutUint64(d[8:], le.Uint64(src[so+tsz:]))
				le.PutUint64(d[16:], le.Uint64(src[so+2*tsz:]))
				le.PutUint64(d[24:], le.Uint64(src[so+3*tsz:]))
				so += 4 * tsz
			}
			for ; t < count; t++ {
				le.PutUint64(dst[t*8:], le.Uint64(src[so:]))
				so += tsz
			}
		case 4:
			dst := col[pos*4 : pos*4+int64(count)*4]
			so, t := 0, 0
			if pos&1 == 0 {
				for ; t+4 <= count; t += 4 {
					d := dst[t*4 : t*4+16]
					le.PutUint64(d[0:], uint64(le.Uint32(src[so:]))|uint64(le.Uint32(src[so+tsz:]))<<32)
					le.PutUint64(d[8:], uint64(le.Uint32(src[so+2*tsz:]))|uint64(le.Uint32(src[so+3*tsz:]))<<32)
					so += 4 * tsz
				}
			}
			for ; t < count; t++ {
				le.PutUint32(dst[t*4:], le.Uint32(src[so:]))
				so += tsz
			}
		default:
			so := 0
			dst := col[pos*int64(w):]
			for t := 0; t < count; t++ {
				copy(dst[t*w:(t+1)*w], src[so:so+w])
				so += tsz
			}
		}
	}
}

// Views returns zero-copy per-column slices covering tuple range
// [from, to): views[j] holds (to-from)*Width(j) bytes of column j. ok is
// false when the range crosses the physical segment boundary (it wraps),
// in which case CopyViews assembles contiguous copies instead. All
// columns wrap at the same tuple index, so one ok covers every column.
// The caller must not retain the views past the range's Release.
func (s *ColumnStore) Views(views [][]byte, from, to int64) ([][]byte, bool) {
	s.check(from, to)
	i := from & s.mask
	j := to & s.mask
	if j == 0 && to > from {
		// The range ends exactly at the physical boundary: still one
		// contiguous run [i, cap).
		j = s.mask + 1
	}
	if from != to && i >= j {
		return views, false // wraps
	}
	views = views[:0]
	for c, col := range s.cols {
		if col == nil {
			views = append(views, nil)
			continue
		}
		w := int64(s.widths[c])
		views = append(views, col[i*w:j*w])
	}
	return views, true
}

// CopyViews appends contiguous copies of tuple range [from, to) of every
// column to bufs (reusing each bufs[j][:0] when present) and returns the
// per-column views. It is the wrap fallback for Views: one memcpy pair
// per column, never a per-tuple gather.
func (s *ColumnStore) CopyViews(bufs [][]byte, from, to int64) [][]byte {
	s.check(from, to)
	if cap(bufs) < len(s.cols) {
		bufs = make([][]byte, len(s.cols))
	}
	bufs = bufs[:len(s.cols)]
	i := from & s.mask
	j := to & s.mask
	for c, col := range s.cols {
		if col == nil {
			bufs[c] = nil
			continue
		}
		w := int64(s.widths[c])
		dst := bufs[c][:0]
		if from == to {
			bufs[c] = dst
			continue
		}
		if i < j {
			dst = append(dst, col[i*w:j*w]...)
		} else {
			dst = append(dst, col[i*w:]...)
			dst = append(dst, col[:j*w]...)
		}
		bufs[c] = dst
	}
	return bufs
}

// Rebase repositions an empty store at absolute tuple index idx — the
// column-store counterpart of Buffer.Rebase, used when restoring an
// engine from a checkpoint. Only an empty store may be rebased, and the
// index may only move forward.
func (s *ColumnStore) Rebase(idx int64) {
	start, end := s.start.Load(), s.end.Load()
	if start != end {
		panic(fmt.Sprintf("ringbuf: column Rebase(%d) with %d retained tuples [%d,%d)", idx, end-start, start, end))
	}
	if idx < start {
		panic(fmt.Sprintf("ringbuf: column Rebase(%d) moves indices backwards from %d", idx, start))
	}
	s.start.Store(idx)
	s.end.Store(idx)
}

// Release frees all tuples before absolute index upTo. Offsets only move
// forward; releasing an already released range is a no-op; releasing past
// End panics. Call this *before* the row ring's Release for the same
// range: the writer blocks on row-ring space, so columns released first
// guarantee Append always has room when the row TryPut succeeds.
func (s *ColumnStore) Release(upTo int64) {
	for {
		cur := s.start.Load()
		if upTo <= cur {
			return
		}
		if upTo > s.end.Load() {
			panic(fmt.Sprintf("ringbuf: column Release(%d) past end %d", upTo, s.end.Load()))
		}
		if s.start.CompareAndSwap(cur, upTo) {
			return
		}
	}
}

func (s *ColumnStore) check(from, to int64) {
	if from > to || from < s.start.Load() || to > s.end.Load() {
		panic(fmt.Sprintf("ringbuf: column range [%d,%d) outside retained [%d,%d)",
			from, to, s.start.Load(), s.end.Load()))
	}
	if to-from > s.mask+1 {
		panic(fmt.Sprintf("ringbuf: column range [%d,%d) larger than capacity %d", from, to, s.mask+1))
	}
}
