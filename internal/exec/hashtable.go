// Package exec implements SABER's CPU operator functions (paper §5.3): for
// each relational operator, the batch operator function evaluated inside a
// query task, and the assembly operator function that combines window
// fragment results into window results.
package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// HashTable is the open-addressing, linear-probing group-by table of the
// aggregation operators. Both processors run those operators, so a
// partial table produced on one merges with one produced on the other
// (paper §5.4).
//
// The table uses struct-of-arrays storage backed by flat slices, which is
// the Go rendition of the paper's byte-array-backed tables: no per-group
// allocation, and trivially poolable. live lists the occupied slots in
// insertion order, so iteration, reset and rehash cost O(groups), not
// O(capacity), and Range visits groups in the order they were first
// inserted.
type HashTable struct {
	keyLen int // group key width in bytes
	nAggs  int // accumulators per group
	cap    int // slot count, power of two

	live   []int32   // occupied slot indices, in insertion order
	state  []int32   // 0 = empty, 1 = occupied
	keys   []byte    // cap * keyLen
	counts []int64   // tuples per group
	vals   []float64 // cap * nAggs accumulator values
	maxTS  []int64   // max contributing timestamp per group
}

// NewHashTable creates a table for keys of keyLen bytes with nAggs
// accumulator values per group and room for at least capacity groups.
func NewHashTable(keyLen, nAggs, capacity int) *HashTable {
	c := 16
	for c < capacity*2 { // keep load factor below 1/2
		c <<= 1
	}
	return &HashTable{
		keyLen: keyLen,
		nAggs:  nAggs,
		cap:    c,
		state:  make([]int32, c),
		keys:   make([]byte, c*keyLen),
		counts: make([]int64, c),
		vals:   make([]float64, c*nAggs),
		maxTS:  make([]int64, c),
	}
}

// Len returns the number of occupied groups.
func (h *HashTable) Len() int { return len(h.live) }

// Cap returns the slot count.
func (h *HashTable) Cap() int { return h.cap }

// KeyLen returns the group key width in bytes.
func (h *HashTable) KeyLen() int { return h.keyLen }

// NumAggs returns the number of accumulators per group.
func (h *HashTable) NumAggs() int { return h.nAggs }

// Reset empties the table, retaining capacity.
func (h *HashTable) Reset() {
	for _, i := range h.live {
		h.state[i] = 0
	}
	h.live = h.live[:0]
}

// FNV-1a's 64-bit offset basis and prime.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// hashKey is the table's hash function: FNV-1a over the key bytes.
func hashKey(key []byte) uint64 {
	var h uint64 = fnvOffset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// fnv4 continues FNV-1a state h over the four little-endian bytes of k,
// unrolled: fnv4(fnvOffset, k) is hashKey of k's four bytes.
func fnv4(h uint64, k uint32) uint64 {
	h = (h ^ uint64(k&0xff)) * fnvPrime
	h = (h ^ uint64(k>>8&0xff)) * fnvPrime
	h = (h ^ uint64(k>>16&0xff)) * fnvPrime
	return (h ^ uint64(k>>24)) * fnvPrime
}

// slotFor finds the slot holding key, or the empty slot where it belongs.
// Returns the slot index and whether the key was found. 4- and 8-byte
// keys (one int32 or int64 column, or two int32 columns) are compared as
// one integer load and hashed with fnv4 from that integer; the home slot
// is still int(hashKey(key)) & mask. Other widths hash and compare byte
// by byte.
func (h *HashTable) slotFor(key []byte) (int, bool) {
	mask := h.cap - 1
	switch h.keyLen {
	case 4:
		k := binary.LittleEndian.Uint32(key)
		i := int(fnv4(fnvOffset, k)) & mask
		for h.state[i] != 0 && binary.LittleEndian.Uint32(h.keys[i*4:]) != k {
			i = (i + 1) & mask
		}
		return i, h.state[i] != 0
	case 8:
		k := binary.LittleEndian.Uint64(key)
		i := int(fnv4(fnv4(fnvOffset, uint32(k)), uint32(k>>32))) & mask
		for h.state[i] != 0 && binary.LittleEndian.Uint64(h.keys[i*8:]) != k {
			i = (i + 1) & mask
		}
		return i, h.state[i] != 0
	}
	i := int(hashKey(key)) & mask
	for {
		if h.state[i] == 0 {
			return i, false
		}
		if bytes.Equal(h.keys[i*h.keyLen:(i+1)*h.keyLen], key) {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// Slot provides update access to one group's accumulators.
type Slot struct {
	h *HashTable
	i int
}

// Count returns the group's tuple count.
func (s Slot) Count() int64 { return s.h.counts[s.i] }

// Val returns accumulator a.
func (s Slot) Val(a int) float64 { return s.h.vals[s.i*s.h.nAggs+a] }

// SetVal sets accumulator a.
func (s Slot) SetVal(a int, v float64) { s.h.vals[s.i*s.h.nAggs+a] = v }

// AddVal adds to accumulator a.
func (s Slot) AddVal(a int, v float64) { s.h.vals[s.i*s.h.nAggs+a] += v }

// MinVal lowers accumulator a to v if smaller.
func (s Slot) MinVal(a int, v float64) {
	if v < s.Val(a) {
		s.SetVal(a, v)
	}
}

// MaxVal raises accumulator a to v if larger.
func (s Slot) MaxVal(a int, v float64) {
	if v > s.Val(a) {
		s.SetVal(a, v)
	}
}

// AddCount adds to the group's tuple count.
func (s Slot) AddCount(n int64) { s.h.counts[s.i] += n }

// ObserveTS raises the group's max timestamp.
func (s Slot) ObserveTS(ts int64) {
	if ts > s.h.maxTS[s.i] {
		s.h.maxTS[s.i] = ts
	}
}

// MaxTS returns the group's max contributing timestamp.
func (s Slot) MaxTS() int64 { return s.h.maxTS[s.i] }

// Key returns the group's key bytes (aliasing table storage).
func (s Slot) Key() []byte { return s.h.keys[s.i*s.h.keyLen : (s.i+1)*s.h.keyLen] }

// Upsert returns the slot for key, inserting a fresh group if absent. Fresh
// groups have count 0 and accumulators initialised via init (which may be
// nil to zero-fill; min/max aggregates need ±Inf seeds). Inserting may
// grow the table, which moves every group to a new slot.
func (h *HashTable) Upsert(key []byte, init func(Slot)) Slot {
	if len(key) != h.keyLen {
		panic(fmt.Sprintf("exec: key length %d, table expects %d", len(key), h.keyLen))
	}
	if len(h.live)*2 >= h.cap {
		h.grow()
	}
	i, found := h.slotFor(key)
	s := Slot{h, i}
	if !found {
		h.state[i] = 1
		h.live = append(h.live, int32(i))
		copy(h.keys[i*h.keyLen:], key)
		h.counts[i] = 0
		h.maxTS[i] = math.MinInt64
		for a := 0; a < h.nAggs; a++ {
			h.vals[i*h.nAggs+a] = 0
		}
		if init != nil {
			init(s)
		}
	}
	return s
}

// Lookup returns the slot for key if present.
func (h *HashTable) Lookup(key []byte) (Slot, bool) {
	i, found := h.slotFor(key)
	return Slot{h, i}, found
}

// Range calls fn for every occupied group, in insertion order.
func (h *HashTable) Range(fn func(Slot)) {
	for _, i := range h.live {
		fn(Slot{h, int(i)})
	}
}

func (h *HashTable) grow() {
	old := *h
	h.cap = old.cap * 2
	h.live = make([]int32, 0, h.cap/2)
	h.state = make([]int32, h.cap)
	h.keys = make([]byte, h.cap*h.keyLen)
	h.counts = make([]int64, h.cap)
	h.vals = make([]float64, h.cap*h.nAggs)
	h.maxTS = make([]int64, h.cap)
	for _, i := range old.live {
		key := old.keys[int(i)*old.keyLen : (int(i)+1)*old.keyLen]
		j, _ := h.slotFor(key)
		h.state[j] = 1
		h.live = append(h.live, int32(j))
		copy(h.keys[j*h.keyLen:], key)
		h.counts[j] = old.counts[i]
		h.maxTS[j] = old.maxTS[i]
		copy(h.vals[j*h.nAggs:(j+1)*h.nAggs], old.vals[int(i)*old.nAggs:(int(i)+1)*old.nAggs])
	}
}

// MergeFrom folds every group of src into h. combine receives the
// destination slot and the source slot; it must fold counts, accumulators
// and timestamps. A nil combine applies the default: counts add, and each
// accumulator is combined with the per-accumulator op given in ops
// (OpAdd/OpMin/OpMax).
func (h *HashTable) MergeFrom(src *HashTable, ops []MergeOp) {
	if src == nil {
		return
	}
	src.Range(func(s Slot) {
		dst := h.Upsert(s.Key(), func(d Slot) {
			for a, op := range ops {
				if op != OpAdd {
					// Seed min with +Inf, max with -Inf.
					if op == OpMin {
						d.SetVal(a, math.Inf(1))
					} else {
						d.SetVal(a, math.Inf(-1))
					}
				}
			}
		})
		dst.AddCount(s.Count())
		dst.ObserveTS(s.MaxTS())
		for a, op := range ops {
			switch op {
			case OpAdd:
				dst.AddVal(a, s.Val(a))
			case OpMin:
				dst.MinVal(a, s.Val(a))
			case OpMax:
				dst.MaxVal(a, s.Val(a))
			}
		}
	})
}

// MergeOp selects how an accumulator combines across partials.
type MergeOp uint8

// Accumulator merge operations.
const (
	OpAdd MergeOp = iota
	OpMin
	OpMax
)
