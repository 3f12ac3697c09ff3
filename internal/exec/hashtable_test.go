package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func key32(v int32) []byte {
	k := make([]byte, 4)
	binary.LittleEndian.PutUint32(k, uint32(v))
	return k
}

func TestHashTableUpsertLookup(t *testing.T) {
	h := NewHashTable(4, 2, 8)
	if h.Len() != 0 || h.KeyLen() != 4 || h.NumAggs() != 2 {
		t.Fatalf("fresh table: %+v", h)
	}
	sl := h.Upsert(key32(7), nil)
	sl.AddCount(1)
	sl.AddVal(0, 2.5)
	sl.SetVal(1, -1)
	sl.ObserveTS(10)

	got, ok := h.Lookup(key32(7))
	if !ok || got.Count() != 1 || got.Val(0) != 2.5 || got.Val(1) != -1 || got.MaxTS() != 10 {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if _, ok := h.Lookup(key32(8)); ok {
		t.Fatal("phantom key")
	}
	// Upsert of an existing key returns the same slot.
	again := h.Upsert(key32(7), nil)
	again.AddCount(2)
	if got, _ := h.Lookup(key32(7)); got.Count() != 3 {
		t.Fatalf("count = %d", got.Count())
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHashTableMinMaxHelpers(t *testing.T) {
	h := NewHashTable(4, 2, 4)
	sl := h.Upsert(key32(1), func(s Slot) {
		s.SetVal(0, math.Inf(1))
		s.SetVal(1, math.Inf(-1))
	})
	for _, v := range []float64{5, 2, 9} {
		sl.MinVal(0, v)
		sl.MaxVal(1, v)
	}
	if sl.Val(0) != 2 || sl.Val(1) != 9 {
		t.Fatalf("min/max = %g/%g", sl.Val(0), sl.Val(1))
	}
}

func TestHashTableGrow(t *testing.T) {
	h := NewHashTable(4, 1, 2)
	for i := int32(0); i < 200; i++ {
		sl := h.Upsert(key32(i), nil)
		sl.AddCount(int64(i))
		sl.AddVal(0, float64(i)*0.5)
	}
	if h.Len() != 200 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := int32(0); i < 200; i++ {
		sl, ok := h.Lookup(key32(i))
		if !ok || sl.Count() != int64(i) || sl.Val(0) != float64(i)*0.5 {
			t.Fatalf("key %d lost after grow: %v %v", i, sl, ok)
		}
	}
}

func TestHashTableReset(t *testing.T) {
	h := NewHashTable(4, 1, 4)
	h.Upsert(key32(1), nil)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, ok := h.Lookup(key32(1)); ok {
		t.Fatal("key survived Reset")
	}
	h.Reset() // idempotent on empty
}

func TestHashTableRange(t *testing.T) {
	h := NewHashTable(4, 1, 8)
	want := map[int32]bool{3: true, 5: true, 11: true}
	for k := range want {
		h.Upsert(key32(k), nil)
	}
	seen := map[int32]bool{}
	h.Range(func(s Slot) {
		seen[int32(binary.LittleEndian.Uint32(s.Key()))] = true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range visited %v", seen)
	}
}

func TestHashTableMergeFrom(t *testing.T) {
	ops := []MergeOp{OpAdd, OpMin, OpMax}
	a := NewHashTable(4, 3, 4)
	b := NewHashTable(4, 3, 4)
	seed := func(s Slot) { s.SetVal(1, math.Inf(1)); s.SetVal(2, math.Inf(-1)) }

	sa := a.Upsert(key32(1), seed)
	sa.AddCount(2)
	sa.AddVal(0, 10)
	sa.MinVal(1, 5)
	sa.MaxVal(2, 5)
	sa.ObserveTS(100)

	sb := b.Upsert(key32(1), seed)
	sb.AddCount(3)
	sb.AddVal(0, 7)
	sb.MinVal(1, 2)
	sb.MaxVal(2, 9)
	sb.ObserveTS(50)

	sb2 := b.Upsert(key32(2), seed)
	sb2.AddCount(1)
	sb2.AddVal(0, 1)
	sb2.MinVal(1, 1)
	sb2.MaxVal(2, 1)

	a.MergeFrom(b, ops)
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	s1, _ := a.Lookup(key32(1))
	if s1.Count() != 5 || s1.Val(0) != 17 || s1.Val(1) != 2 || s1.Val(2) != 9 || s1.MaxTS() != 100 {
		t.Fatalf("merged slot = count %d vals %g/%g/%g ts %d",
			s1.Count(), s1.Val(0), s1.Val(1), s1.Val(2), s1.MaxTS())
	}
	s2, _ := a.Lookup(key32(2))
	if s2.Count() != 1 || s2.Val(1) != 1 || s2.Val(2) != 1 {
		t.Fatalf("new group slot = %+v", s2)
	}
	a.MergeFrom(nil, ops) // no-op
}

func TestHashTableKeyLenMismatchPanics(t *testing.T) {
	h := NewHashTable(4, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on key length mismatch")
		}
	}()
	h.Upsert([]byte{1, 2}, nil)
}

// TestHashTableQuickVsMap compares against a plain Go map under random
// workloads (the testing/quick property for the table), at the two key
// widths the integer probe serves and at one that takes the byte-wise
// probe. Every other key's first four bytes are folded to 64 values and
// the bytes after them take four values, so keys repeat and wide keys
// share a prefix.
func TestHashTableQuickVsMap(t *testing.T) {
	for _, w := range []int{4, 8, 12} {
		keyOf := func(i int, k int32) []byte {
			head := k
			if i%2 == 0 {
				head &= 63
			}
			key := make([]byte, w)
			binary.LittleEndian.PutUint32(key, uint32(head))
			for b := 4; b < w; b++ {
				key[b] = byte(k>>6&3) + byte(b)
			}
			return key
		}
		f := func(keys []int32, vals []float64) bool {
			h := NewHashTable(w, 1, 4)
			ref := map[string]struct {
				c int64
				v float64
			}{}
			for i, k := range keys {
				v := 1.0
				if i < len(vals) {
					v = vals[i]
				}
				key := keyOf(i, k)
				sl := h.Upsert(key, nil)
				sl.AddCount(1)
				sl.AddVal(0, v)
				r := ref[string(key)]
				r.c++
				r.v += v
				ref[string(key)] = r
			}
			if h.Len() != len(ref) {
				return false
			}
			for k, r := range ref {
				sl, ok := h.Lookup([]byte(k))
				if !ok || sl.Count() != r.c || sl.Val(0) != r.v || string(sl.Key()) != k {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("keyLen %d: %v", w, err)
		}
	}
}

// TestFixedWidthProbePlacement: the integer probe for 4- and 8-byte keys
// puts a key's home slot at int(hashKey(key)) & mask, as the byte-wise
// probe does.
func TestFixedWidthProbePlacement(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, w := range []int{4, 8} {
		h := NewHashTable(w, 0, 1<<12)
		mask := h.Cap() - 1
		key := make([]byte, w)
		for n := 0; n < 2000; n++ {
			rnd.Read(key)
			if i, found := h.slotFor(key); found || i != int(hashKey(key))&mask {
				t.Fatalf("keyLen %d, key %x: empty table probes slot %d (found %v), hashKey places it at %d",
					w, key, i, found, int(hashKey(key))&mask)
			}
		}
	}
}

func TestHashIsFNV1a(t *testing.T) {
	// Lock the hash function: fnv4, the fixed-width probes' unrolled
	// form, must keep agreeing with it. FNV-1a of "a" is
	// 0xaf63dc4c8601ec8c.
	if got := hashKey([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("hashKey = %#x", got)
	}
	if hashKey(nil) != 14695981039346656037 {
		t.Fatal("hashKey(nil) != offset basis")
	}
}
