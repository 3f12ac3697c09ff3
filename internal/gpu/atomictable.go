package gpu

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"saber/internal/exec"
)

// atomicTable is the GPGPU-side open-addressing hash table of paper §5.4:
// concurrent workgroup threads claim slots with compare-and-swap on a
// state word, then fold their values in with atomic operations. The layout
// (linear probing, FNV-1a placement via exec.Hash) matches the CPU table
// so converted results merge transparently in the assembly stage.
type atomicTable struct {
	keyLen int
	nAggs  int
	mask   int

	// state: 0 empty, 1 claiming (key being written), 2 ready.
	state  []atomic.Int32
	keys   []byte
	counts []atomic.Int64
	vals   []atomic.Uint64 // float64 bit patterns
	maxTS  []atomic.Int64

	used atomic.Int64

	// grow fallback: when the fixed-capacity table fills up, overflow
	// inserts serialise into the spill map (rare; sized to avoid it).
	spillMu sync.Mutex
	spill   map[string]*spillGroup
}

type spillGroup struct {
	count int64
	vals  []float64
	maxTS int64
}

func newAtomicTable(keyLen, nAggs, capacity int) *atomicTable {
	c := 64
	for c < capacity*2 {
		c <<= 1
	}
	t := &atomicTable{
		keyLen: keyLen,
		nAggs:  nAggs,
		mask:   c - 1,
		state:  make([]atomic.Int32, c),
		keys:   make([]byte, c*keyLen),
		counts: make([]atomic.Int64, c),
		vals:   make([]atomic.Uint64, c*nAggs),
		maxTS:  make([]atomic.Int64, c),
	}
	return t
}

// upsert finds or claims the slot for key and returns its index, or -1
// when key is absent and the table is beyond its load limit (callers
// spill). Only moving to the next slot counts as a probe: waiting on a
// slot another thread is claiming must not exhaust the probe budget, or
// a key already in the table would be spilled as a second group.
func (t *atomicTable) upsert(key []byte, seed []float64) int {
	i := int(exec.Hash(key)) & t.mask
	for probes := 0; probes <= t.mask; {
		switch t.state[i].Load() {
		case 0:
			if int(t.used.Load())*2 > t.mask+1 {
				return -1
			}
			if t.state[i].CompareAndSwap(0, 1) {
				copy(t.keys[i*t.keyLen:], key)
				t.maxTS[i].Store(math.MinInt64)
				for a := 0; a < t.nAggs; a++ {
					t.vals[i*t.nAggs+a].Store(math.Float64bits(seed[a]))
				}
				t.used.Add(1)
				t.state[i].Store(2)
				return i
			}
			// lost the race: re-examine the slot
		case 1:
			runtime.Gosched() // another thread is writing the key: wait
		case 2:
			if bytes.Equal(t.keys[i*t.keyLen:(i+1)*t.keyLen], key) {
				return i
			}
			i = (i + 1) & t.mask
			probes++
		}
	}
	return -1
}

// fold applies one tuple's contribution to slot i.
func (t *atomicTable) fold(i int, vals []float64, ops []exec.MergeOp, ts int64) {
	t.counts[i].Add(1)
	atomicMaxInt64(&t.maxTS[i], ts)
	for a, op := range ops {
		cell := &t.vals[i*t.nAggs+a]
		switch op {
		case exec.OpAdd:
			atomicAddFloat64(cell, vals[a])
		case exec.OpMin:
			atomicMinFloat64(cell, vals[a])
		case exec.OpMax:
			atomicMaxFloat64(cell, vals[a])
		}
	}
}

// foldSpill handles inserts that did not fit the fixed-capacity table.
func (t *atomicTable) foldSpill(key []byte, vals []float64, ops []exec.MergeOp, ts int64, seed []float64) {
	t.spillMu.Lock()
	defer t.spillMu.Unlock()
	if t.spill == nil {
		t.spill = make(map[string]*spillGroup)
	}
	g := t.spill[string(key)]
	if g == nil {
		g = &spillGroup{vals: append([]float64(nil), seed...), maxTS: math.MinInt64}
		t.spill[string(key)] = g
	}
	g.count++
	if ts > g.maxTS {
		g.maxTS = ts
	}
	for a, op := range ops {
		switch op {
		case exec.OpAdd:
			g.vals[a] += vals[a]
		case exec.OpMin:
			if vals[a] < g.vals[a] {
				g.vals[a] = vals[a]
			}
		case exec.OpMax:
			if vals[a] > g.vals[a] {
				g.vals[a] = vals[a]
			}
		}
	}
}

// drainInto converts the atomic table into a CPU-compatible table.
func (t *atomicTable) drainInto(dst *exec.HashTable, seedSlot func(exec.Slot), ops []exec.MergeOp) {
	for i := 0; i <= t.mask; i++ {
		if t.state[i].Load() != 2 {
			continue
		}
		sl := dst.Upsert(t.keys[i*t.keyLen:(i+1)*t.keyLen], seedSlot)
		sl.AddCount(t.counts[i].Load())
		sl.ObserveTS(t.maxTS[i].Load())
		for a, op := range ops {
			v := math.Float64frombits(t.vals[i*t.nAggs+a].Load())
			switch op {
			case exec.OpAdd:
				sl.AddVal(a, v)
			case exec.OpMin:
				sl.MinVal(a, v)
			case exec.OpMax:
				sl.MaxVal(a, v)
			}
		}
	}
	for key, g := range t.spill {
		sl := dst.Upsert([]byte(key), seedSlot)
		sl.AddCount(g.count)
		sl.ObserveTS(g.maxTS)
		for a, op := range ops {
			switch op {
			case exec.OpAdd:
				sl.AddVal(a, g.vals[a])
			case exec.OpMin:
				sl.MinVal(a, g.vals[a])
			case exec.OpMax:
				sl.MaxVal(a, g.vals[a])
			}
		}
	}
}

func (t *atomicTable) len() int {
	n := int(t.used.Load())
	t.spillMu.Lock()
	n += len(t.spill)
	t.spillMu.Unlock()
	return n
}

func atomicAddFloat64(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat64(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat64(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxInt64(cell *atomic.Int64, v int64) {
	for {
		old := cell.Load()
		if old >= v {
			return
		}
		if cell.CompareAndSwap(old, v) {
			return
		}
	}
}
