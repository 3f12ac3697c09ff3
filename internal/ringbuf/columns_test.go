package ringbuf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Test tuple layout: int64 ts | float32 a | int32 b  (16 bytes).
const (
	ctsz = 16
)

var (
	coffs   = []int{0, 8, 12}
	cwidths = []int{8, 4, 4}
)

// genRows builds n deterministic 16-byte tuples.
func genRows(n int, seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]byte, n*ctsz)
	for i := 0; i < n; i++ {
		row := out[i*ctsz:]
		binary.LittleEndian.PutUint64(row, uint64(i))
		binary.LittleEndian.PutUint32(row[8:], rnd.Uint32())
		binary.LittleEndian.PutUint32(row[12:], rnd.Uint32())
	}
	return out
}

// wantCol extracts column c of rows[from:to) the slow way — the
// reference the shredder is checked against.
func wantCol(rows []byte, c int, from, to int64) []byte {
	o, w := coffs[c], cwidths[c]
	var out []byte
	for i := from; i < to; i++ {
		out = append(out, rows[int(i)*ctsz+o:int(i)*ctsz+o+w]...)
	}
	return out
}

func TestColumnStoreShred(t *testing.T) {
	s := MustNewColumnStore(coffs, cwidths, nil, ctsz, 64)
	rows := genRows(48, 1)
	// Append in uneven chunks.
	for _, n := range []int{1, 7, 16, 24} {
		off := int(s.end.Load())
		s.Append(rows[off*ctsz : (off+n)*ctsz])
	}
	if s.end.Load() != 48 || s.start.Load() != 0 {
		t.Fatalf("bounds: [%d,%d)", s.start.Load(), s.end.Load())
	}
	views, ok := s.Views(nil, 0, 48)
	if !ok {
		t.Fatal("contiguous range reported wrapped")
	}
	for c := range views {
		if want := wantCol(rows, c, 0, 48); !bytes.Equal(views[c], want) {
			t.Fatalf("column %d shredded wrong:\n got %x\nwant %x", c, views[c], want)
		}
	}
}

// TestColumnStoreWrap drives the indices past the physical capacity:
// Views must refuse the wrapping range and serve the ranges on either
// side of the boundary.
func TestColumnStoreWrap(t *testing.T) {
	s := MustNewColumnStore(coffs, cwidths, nil, ctsz, 32) // rounds to 32
	rows := genRows(200, 2)
	next := int64(0)
	appendTo := func(end int64) {
		s.Append(rows[next*ctsz : end*ctsz])
		next = end
	}

	appendTo(24)
	s.Release(16) // free room so the next append wraps
	appendTo(40)  // crosses physical index 32

	if _, ok := s.Views(nil, 28, 36); ok {
		t.Fatal("Views accepted a wrapping range")
	}
	// Non-wrapping sub-ranges on both sides are still zero-copy.
	for _, r := range [][2]int64{{16, 32}, {32, 40}, {33, 36}} {
		v, ok := s.Views(nil, r[0], r[1])
		if !ok {
			t.Fatalf("range [%d,%d) should not wrap", r[0], r[1])
		}
		for c := range v {
			if want := wantCol(rows, c, r[0], r[1]); !bytes.Equal(v[c], want) {
				t.Fatalf("view [%d,%d) column %d wrong", r[0], r[1], c)
			}
		}
	}
}

// TestColumnStoreRandomized: a long randomized append/view/release run
// against the row-slice reference, lapping the capacity many times.
func TestColumnStoreRandomized(t *testing.T) {
	s := MustNewColumnStore(coffs, cwidths, nil, ctsz, 61) // rounds to 64
	rows := genRows(5000, 3)
	rnd := rand.New(rand.NewSource(4))
	var next int64
	wrapped := 0
	for next < 5000 {
		start, capTuples := s.start.Load(), s.mask+1
		// Append up to the free space.
		free := capTuples - (next - start)
		if free > 0 {
			n := 1 + rnd.Int63n(free)
			if next+n > 5000 {
				n = 5000 - next
			}
			s.Append(rows[next*ctsz : (next+n)*ctsz])
			next += n
		}
		// Read a random retained range; Views refuses exactly the ranges
		// that cross the physical boundary.
		lo := start + rnd.Int63n(next-start+1)
		hi := lo + rnd.Int63n(next-lo+1)
		crosses := lo != hi && lo/capTuples != (hi-1)/capTuples
		v, ok := s.Views(nil, lo, hi)
		if ok == crosses {
			t.Fatalf("range [%d,%d): Views ok=%v, crosses the boundary=%v", lo, hi, ok, crosses)
		}
		if !ok {
			wrapped++
		}
		for c := range v {
			if want := wantCol(rows, c, lo, hi); ok && !bytes.Equal(v[c], want) {
				t.Fatalf("range [%d,%d) column %d wrong after %d tuples", lo, hi, c, next)
			}
		}
		// Release a random prefix.
		s.Release(start + rnd.Int63n(next-start+1))
	}
	if wrapped == 0 {
		t.Error("randomized run never read across the boundary — capacity too large for the test to bite")
	}
}

func TestColumnStoreInvariantPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	s := MustNewColumnStore(coffs, cwidths, nil, ctsz, 8)
	rows := genRows(16, 5)
	s.Append(rows[:8*ctsz])

	expectPanic("overflow append (release ordering broken)", func() {
		s.Append(rows[8*ctsz : 9*ctsz])
	})
	expectPanic("ragged append", func() {
		s.Append(rows[:ctsz-1])
	})
	expectPanic("view past end", func() {
		s.Views(nil, 0, 9)
	})
	s.Release(4)
	expectPanic("view before start", func() {
		s.Views(nil, 3, 6)
	})
	expectPanic("release past end", func() {
		s.Release(9)
	})
	// Backwards/duplicate release is a no-op, not a panic.
	s.Release(2)
	if got := s.start.Load(); got != 4 {
		t.Errorf("backwards release moved start to %d", got)
	}

	if _, err := NewColumnStore([]int{0}, []int{4, 4}, nil, 8, 8); err == nil {
		t.Error("mismatched offs/widths accepted")
	}
	if _, err := NewColumnStore([]int{6}, []int{4}, nil, 8, 8); err == nil {
		t.Error("column overhanging the tuple accepted")
	}
	if _, err := NewColumnStore([]int{0}, []int{4}, nil, 0, 8); err == nil {
		t.Error("zero tuple size accepted")
	}
}

func TestColumnStorePow2Rounding(t *testing.T) {
	for _, tc := range []struct{ in, want int64 }{{1, 1}, {2, 2}, {3, 4}, {61, 64}, {64, 64}, {65, 128}} {
		s := MustNewColumnStore([]int{0}, []int{8}, nil, 8, int(tc.in))
		if got := s.mask + 1; got != tc.want {
			t.Errorf("cap %d rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestColumnStoreShredMask: a deselected column is never materialised —
// its Views entries stay nil — while the selected columns behave exactly
// as an unmasked store.
func TestColumnStoreShredMask(t *testing.T) {
	s := MustNewColumnStore(coffs, cwidths, []bool{false, true, false}, ctsz, 32)
	rows := genRows(24, 9)
	s.Append(rows)

	views, ok := s.Views(nil, 0, 24)
	if !ok {
		t.Fatal("contiguous range reported wrapped")
	}
	if views[0] != nil || views[2] != nil {
		t.Errorf("masked columns returned views: %v %v", views[0], views[2])
	}
	if want := wantCol(rows, 1, 0, 24); !bytes.Equal(views[1], want) {
		t.Errorf("selected column shredded wrong:\n got %x\nwant %x", views[1], want)
	}

	if _, err := NewColumnStore(coffs, cwidths, []bool{true}, ctsz, 32); err == nil {
		t.Error("short shred mask accepted")
	}
}
