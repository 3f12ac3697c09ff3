// Package ringbuf implements the lock-free circular input buffer SABER
// keeps per input stream and per query (paper §4.1).
//
// The buffer is backed by a byte array and addressed with absolute,
// monotonically increasing byte offsets. Exactly one writer (the worker
// thread that dispatches a query's input) appends data; any number of
// worker threads read already-published regions; data is released by
// advancing the start pointer to a task's free pointer once the task's
// results have been processed. There are no locks: the writer publishes by
// advancing `end` with a release store, and readers/releasers only touch
// regions the pointers prove stable.
package ringbuf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Buffer is a single-writer, multi-reader circular byte buffer.
//
// Writer-only methods: TryPut (never blocks), End.
// Any-thread methods: Slice, CopyTo, Release, Start, Size.
type Buffer struct {
	data []byte
	mask int64

	// Absolute offsets. end is advanced only by the writer; start only by
	// Release (result stage). start <= end <= start+capacity always holds.
	start atomic.Int64
	end   atomic.Int64

	// wraps counts writes that crossed the physical end of the backing
	// array (stress-harness telemetry; see invariant.go).
	wraps atomic.Int64

	// chk holds the invariant checker's monotonicity watermarks. The
	// mutex serialises CheckInvariants callers so watermark comparisons
	// cannot observe stale loads (see CheckInvariants).
	chk struct {
		mu         sync.Mutex
		start, end int64
		name       string
	}
}

// New creates a buffer with the given capacity, which must be a power of
// two and positive.
func New(capacity int) (*Buffer, error) {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("ringbuf: capacity %d is not a positive power of two", capacity)
	}
	return &Buffer{data: make([]byte, capacity), mask: int64(capacity) - 1}, nil
}

// MustNew is like New but panics on error.
func MustNew(capacity int) *Buffer {
	b, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return b
}

// Capacity returns the buffer capacity in bytes.
func (b *Buffer) Capacity() int { return len(b.data) }

// Start returns the absolute offset of the oldest retained byte.
func (b *Buffer) Start() int64 { return b.start.Load() }

// End returns the absolute offset one past the newest written byte.
func (b *Buffer) End() int64 { return b.end.Load() }

// Size returns the number of retained bytes.
func (b *Buffer) Size() int64 { return b.end.Load() - b.start.Load() }

// Free returns the number of bytes that can currently be written.
func (b *Buffer) Free() int64 { return int64(len(b.data)) - b.Size() }

// TryPut appends p if there is room, returning the absolute offset of the
// first written byte and true; otherwise it writes nothing and returns
// false. Only the writer goroutine may call TryPut.
func (b *Buffer) TryPut(p []byte) (int64, bool) {
	if int64(len(p)) > b.Free() {
		return 0, false
	}
	end := b.end.Load()
	b.copyIn(end, p)
	// Release-store: publish the bytes before moving the end pointer.
	b.end.Store(end + int64(len(p)))
	return end, true
}

func (b *Buffer) copyIn(off int64, p []byte) {
	i := off & b.mask
	n := copy(b.data[i:], p)
	if n < len(p) {
		copy(b.data, p[n:])
		b.wraps.Add(1)
	}
}

// Slice returns the bytes in [from, to) as at most two subslices of the
// underlying array (the second is non-nil only when the region wraps).
// The region must lie within [Start, End); the caller must not retain the
// slices past the point where Release frees the region.
func (b *Buffer) Slice(from, to int64) (first, second []byte) {
	b.check(from, to)
	if from == to {
		return nil, nil
	}
	i := from & b.mask
	j := to & b.mask
	if i < j {
		return b.data[i:j], nil
	}
	return b.data[i:], b.data[:j]
}

// Contiguous returns the bytes in [from, to) as a single subslice when the
// region does not wrap, and ok=false otherwise.
func (b *Buffer) Contiguous(from, to int64) (p []byte, ok bool) {
	first, second := b.Slice(from, to)
	if second != nil {
		return nil, false
	}
	return first, true
}

// CopyTo appends the bytes in [from, to) to dst and returns the extended
// slice. It always succeeds for a valid region, wrapping or not.
func (b *Buffer) CopyTo(dst []byte, from, to int64) []byte {
	first, second := b.Slice(from, to)
	dst = append(dst, first...)
	return append(dst, second...)
}

// Release frees all data before the absolute offset upTo, making the space
// available to the writer. Offsets only move forward; releasing an already
// released region is a no-op. Releasing past End panics.
func (b *Buffer) Release(upTo int64) {
	for {
		cur := b.start.Load()
		if upTo <= cur {
			return
		}
		if upTo > b.end.Load() {
			panic(fmt.Sprintf("ringbuf: Release(%d) past end %d", upTo, b.end.Load()))
		}
		if b.start.CompareAndSwap(cur, upTo) {
			return
		}
	}
}

// Rebase repositions an empty buffer at absolute offset off, so an
// engine restored from a checkpoint keeps addressing the stream with the
// same absolute offsets the checkpoint recorded. Only a fresh (or fully
// released and never-rebased) empty buffer may be rebased: retained bytes
// would have no defined position after the jump. Offsets only move
// forward, matching the monotonicity invariant.
func (b *Buffer) Rebase(off int64) {
	b.chk.mu.Lock()
	defer b.chk.mu.Unlock()
	start, end := b.start.Load(), b.end.Load()
	if start != end {
		panic(fmt.Sprintf("ringbuf: Rebase(%d) with %d retained bytes [%d,%d)", off, end-start, start, end))
	}
	if off < start {
		panic(fmt.Sprintf("ringbuf: Rebase(%d) moves offsets backwards from %d", off, start))
	}
	b.start.Store(off)
	b.end.Store(off)
	b.chk.start, b.chk.end = off, off
}

func (b *Buffer) check(from, to int64) {
	if from > to || from < b.start.Load() || to > b.end.Load() {
		panic(fmt.Sprintf("ringbuf: region [%d,%d) outside retained [%d,%d)",
			from, to, b.start.Load(), b.end.Load()))
	}
	if to-from > int64(len(b.data)) {
		panic(fmt.Sprintf("ringbuf: region [%d,%d) larger than capacity %d", from, to, len(b.data)))
	}
}
