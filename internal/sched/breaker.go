package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a circuit breaker's state.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: the GPGPU is healthy; tasks flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the device failed too many consecutive tasks; no new
	// tasks are submitted and the scheduler routes everything to the CPU
	// class until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe task is
	// allowed through. Success closes the breaker, failure reopens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Breaker is the GPGPU circuit breaker: it opens after Threshold
// consecutive device-side task failures, sheds all GPGPU work onto the
// CPU class while open (graceful degradation of the hybrid model), and
// half-open-probes the device after the cooldown to recover. The GPGPU
// worker drives it (Acquire before submitting, RecordSuccess/
// RecordFailure after completion); HLS consults State to route
// GPU-preferred tasks to the CPU while the breaker is not closed.
type Breaker struct {
	threshold int64
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	consec   int64 // consecutive failures
	openedAt time.Time
	probeOut bool // a half-open probe is in flight

	// Notify, when set, is called outside the lock after the breaker
	// opens or closes — HLS routes CPU workers by the state — and when an
	// open breaker's cool-down elapses, so a parked GPGPU worker can take
	// the half-open probe. The engine wakes its parked workers with it.
	// Set before concurrent use.
	Notify func()

	// Telemetry.
	opens    atomic.Int64
	closes   atomic.Int64
	probes   atomic.Int64
	rejected atomic.Int64 // Acquire calls refused while open/probing
}

// NewBreaker creates a closed breaker that opens after threshold
// consecutive failures and probes after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 50 * time.Millisecond
	}
	return &Breaker{threshold: int64(threshold), cooldown: cooldown}
}

// Acquire asks permission to submit one task to the device. probe is
// true when the grant is the single half-open probe; the caller must
// resolve it with RecordSuccess/RecordFailure, or return it with
// CancelProbe if no task was available to submit. Safe on nil (always
// allows: no breaker configured).
func (b *Breaker) Acquire() (allow, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probeOut = true
			b.probes.Add(1)
			return true, true
		}
		b.rejected.Add(1)
		return false, false
	default: // BreakerHalfOpen
		if !b.probeOut {
			b.probeOut = true
			b.probes.Add(1)
			return true, true
		}
		b.rejected.Add(1)
		return false, false
	}
}

func (b *Breaker) notify() {
	if b.Notify != nil {
		b.Notify()
	}
}

// CancelProbe returns an unused probe grant (the worker acquired it but
// found no task to submit). A grant already invalidated by a transition
// out of half-open is ignored, so a stale cancel can never release a
// probe slot that belongs to a newer half-open cycle.
func (b *Breaker) CancelProbe(probe bool) {
	if b == nil || !probe {
		return
	}
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probeOut = false
	}
	b.mu.Unlock()
}

// RecordSuccess reports a completed device task. Any success closes the
// breaker and resets the failure streak; closing also resolves the probe
// cycle, invalidating any still-outstanding grant.
func (b *Breaker) RecordSuccess(probe bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.consec = 0
	b.probeOut = false
	changed := b.state != BreakerClosed
	if changed {
		b.state = BreakerClosed
		b.closes.Add(1)
	}
	b.mu.Unlock()
	if changed {
		b.notify()
	}
}

// RecordFailure reports a failed (or timed-out) device task. Any failure
// while half-open — the probe itself, or an older in-flight task that was
// submitted before the breaker opened — reopens the breaker; in the
// closed state the breaker opens once the consecutive-failure streak
// reaches the threshold. Every transition out of half-open clears the
// outstanding probe grant, so probeOut is true only while half-open (the
// invariant CheckInvariants asserts) and an orphaned in-flight probe
// resolving later cannot double-grant the next cycle's probe: its
// eventual RecordSuccess/RecordFailure is handled as an ordinary
// completion.
func (b *Breaker) RecordFailure(probe bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.consec++
	changed := b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.consec >= b.threshold)
	if changed {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opens.Add(1)
		b.probeOut = false
	}
	b.mu.Unlock()
	if changed {
		b.notify()
		time.AfterFunc(b.cooldown, b.notify)
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts closed/half-open → open transitions.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	return b.opens.Load()
}

// Closes counts open/half-open → closed transitions.
func (b *Breaker) Closes() int64 {
	if b == nil {
		return 0
	}
	return b.closes.Load()
}

// Probes counts half-open probe grants.
func (b *Breaker) Probes() int64 {
	if b == nil {
		return 0
	}
	return b.probes.Load()
}

// Rejected counts Acquire calls refused while the device was gated.
func (b *Breaker) Rejected() int64 {
	if b == nil {
		return 0
	}
	return b.rejected.Load()
}

// InvariantName implements the inv.Checker contract.
func (b *Breaker) InvariantName() string { return "sched.breaker" }

// CheckInvariants verifies the breaker's bookkeeping:
//
//   - the state is one of the three defined states;
//   - the consecutive-failure streak is non-negative;
//   - a probe can only be outstanding in the half-open state;
//   - transition counters balance: closes never exceed opens, and the
//     breaker can only be non-closed after at least one open.
func (b *Breaker) CheckInvariants() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed && b.state != BreakerOpen && b.state != BreakerHalfOpen {
		return fmt.Errorf("undefined state %d", b.state)
	}
	if b.consec < 0 {
		return fmt.Errorf("negative failure streak %d", b.consec)
	}
	if b.probeOut && b.state != BreakerHalfOpen {
		return fmt.Errorf("probe outstanding in %v state", b.state)
	}
	opens, closes := b.opens.Load(), b.closes.Load()
	if closes > opens {
		return fmt.Errorf("%d closes exceed %d opens", closes, opens)
	}
	if b.state != BreakerClosed && opens == 0 {
		return fmt.Errorf("%v state with zero opens", b.state)
	}
	return nil
}
