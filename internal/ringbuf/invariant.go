package ringbuf

import "fmt"

// Invariant hooks for the stress harness (internal/harness). Buffer
// satisfies the inv.Checker contract structurally; the checks are safe to
// run concurrently with the writer, readers and releasers.

// Wraps returns the number of writes that wrapped around the physical end
// of the backing array. The harness uses it to prove a stress run really
// exercised wrap-around addressing.
func (b *Buffer) Wraps() int64 { return b.wraps.Load() }

// SetInvariantName labels this buffer in invariant violation reports
// (e.g. "ringbuf[q0/in0]"). Safe to call before the buffer is shared.
func (b *Buffer) SetInvariantName(name string) {
	b.chk.mu.Lock()
	b.chk.name = name
	b.chk.mu.Unlock()
}

// InvariantName implements the inv.Checker contract.
func (b *Buffer) InvariantName() string {
	b.chk.mu.Lock()
	defer b.chk.mu.Unlock()
	if b.chk.name != "" {
		return b.chk.name
	}
	return "ringbuf"
}

// CheckInvariants verifies, race-safely, that
//
//   - start and end never move backwards (TryPut and Release are monotonic),
//   - start <= end (loading start before end: start only grows, so the
//     later-loaded end can only exceed the earlier-loaded start), and
//   - end - start <= capacity, i.e. the writer never overruns unreleased
//     data. Because start may advance between the two loads this is
//     re-checked on a fresh start load before being reported.
//
// The checker mutex serialises callers: within the critical section a
// later atomic load cannot return an older value, so the watermark
// comparisons cannot misfire on stale reads.
func (b *Buffer) CheckInvariants() error {
	b.chk.mu.Lock()
	defer b.chk.mu.Unlock()

	start := b.start.Load()
	end := b.end.Load()
	if start < b.chk.start {
		return fmt.Errorf("start moved backwards: %d -> %d", b.chk.start, start)
	}
	if end < b.chk.end {
		return fmt.Errorf("end moved backwards: %d -> %d", b.chk.end, end)
	}
	b.chk.start, b.chk.end = start, end

	if end < start {
		return fmt.Errorf("end %d < start %d", end, start)
	}
	if end-start > int64(len(b.data)) {
		// start may have advanced after it was loaded; re-load before
		// declaring an overrun. end was loaded after start, so a stable
		// violation persists against the fresh start.
		if fresh := b.start.Load(); end-fresh > int64(len(b.data)) {
			return fmt.Errorf("retained %d bytes exceed capacity %d (start %d end %d)",
				end-fresh, len(b.data), fresh, end)
		}
	}
	return nil
}
