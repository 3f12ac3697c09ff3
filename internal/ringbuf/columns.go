package ringbuf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

var le = binary.LittleEndian

// ColumnStore holds a window of fixed-width row tuples as per-column
// contiguous segments: column j holds the bytes of one tuple field for
// every retained tuple, packed with stride == field width. It is
// addressed in absolute, monotonically increasing tuple indices.
//
// The engine keeps one row ring per input and reads no ColumnStore;
// benchmark/layers.go is the only user, timing the shred it replays.
// Like Buffer it is single-writer multi-reader: one goroutine appends
// and publishes by advancing end after the column bytes are in place;
// readers only touch [start, end). Capacity is rounded up to a power of
// two.
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
}

// NewColumnStore creates a store for tuples of tupleSize bytes whose
// columns live at offs with element widths. capTuples is rounded up to a
// power of two internally. shred selects which columns are materialised
// (nil means all); a deselected column is never shredded and its Views
// entries stay nil.
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

// Append shreds len(rows)/tupleSize row tuples into the column segments
// and publishes them. Only the writer goroutine may call Append, and the
// caller must Release enough first: running out of column space is an
// invariant violation, not backpressure.
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
	}
	// Publish after the bytes are in place.
	s.end.Store(end + n)
}

// shred copies count tuples starting at row index rowOff into physical
// tuple position pos of every column. The inner loops keep a running
// source offset instead of re-multiplying, unroll four tuples per
// iteration, and pack pairs of 4-byte elements into one 8-byte store
// (dst is always 8-byte aligned for even positions because capacities
// are powers of two).
func (s *ColumnStore) shred(rows []byte, rowOff, count int, pos int64) {
	tsz := s.tsz
	for j, col := range s.cols {
		if col == nil {
			continue // deselected
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
// false when the range crosses the physical segment boundary (it wraps).
// All columns wrap at the same tuple index, so one ok covers every
// column.
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

// Release frees all tuples before absolute index upTo. Indices only move
// forward; releasing an already released range is a no-op; releasing past
// the end panics.
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
