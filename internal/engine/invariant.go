package engine

import (
	"fmt"

	"saber/internal/inv"
)

// Invariant and debug hooks for the stress harness (internal/harness).
// resultStage satisfies the inv.Checker contract structurally; Engine
// aggregates every concurrency-bearing subsystem it owns.

// Invariants returns the invariant checkers of everything the engine
// wires together: each query's result stage and input ring buffers, the
// scheduling policy (when it exposes invariants) and the GPGPU device.
// Call it after Start, when the policy exists; the harness polls the
// returned checkers while the engine runs.
func (e *Engine) Invariants() []inv.Checker {
	var cs []inv.Checker
	for _, r := range e.queries() {
		if r.dropped.Load() {
			continue
		}
		cs = append(cs, r.result)
		r.bufMu.Lock()
		for i := 0; i < r.plan.NumInputs(); i++ {
			if ring := r.ins[i].ring; ring != nil {
				cs = append(cs, ring)
			}
		}
		r.bufMu.Unlock()
	}
	if c, ok := e.policy.(inv.Checker); ok {
		cs = append(cs, c)
	}
	if e.breaker != nil {
		cs = append(cs, e.breaker)
	}
	if e.cfg.GPU != nil {
		cs = append(cs, e.cfg.GPU)
	}
	return cs
}

// InvariantName implements the inv.Checker contract.
func (rs *resultStage) InvariantName() string {
	return fmt.Sprintf("engine.result[q%d]", rs.r.idx)
}

// CheckInvariants verifies the result stage's reorder bookkeeping with
// race-safe load orderings (all three counters are monotonic):
//
//   - drained <= next <= tasks created (the drainer advances next before
//     drained, so loading drained first can never observe drained > next);
//   - tasks created - next <= slots: no task is cut past the result
//     window (taskSeq is loaded first — next only grows after it, and the
//     cut of ID s-1 saw s-1 < next+slots);
//   - slot control flags are free, full or claimed (a claimed slot is a
//     deliverer mid-publish; it transitions to full or back to free).
func (rs *resultStage) CheckInvariants() error {
	seq := rs.r.taskSeq.Load()
	drained := rs.drained.Load()
	next := rs.next.Load()
	if drained > next {
		return fmt.Errorf("drained %d ahead of next %d", drained, next)
	}
	if ahead := seq - next; ahead > int64(len(rs.slots)) {
		return fmt.Errorf("%d tasks cut past drain frontier %d, result window is %d slots", ahead, next, len(rs.slots))
	}
	// Re-load taskSeq for the upper bound: it must be read after next.
	if created := rs.r.taskSeq.Load(); next > created {
		return fmt.Errorf("next %d ahead of %d tasks created", next, created)
	}

	for i := range rs.slots {
		st := rs.slots[i].state.Load()
		if st != slotFree && st != slotFull && st != slotClaimed {
			return fmt.Errorf("slot %d control flag %d", i, st)
		}
	}
	return nil
}

// Debug is a point-in-time snapshot of one query's concurrency counters,
// exposed for the stress harness and for debugging.
type Debug struct {
	// TasksCreated, Drained and NextID mirror the dispatch/drain
	// frontier: after a clean Drain all three are equal.
	TasksCreated int64
	Drained      int64
	NextID       int64
	// WindowWaits counts task cuts that parked until the result window
	// [NextID, NextID+ResultSlots) had room for the next task ID.
	WindowWaits int64
	// DuplicateResults counts deliveries discarded by the exactly-once
	// guard (retries and late results losing the slot claim).
	DuplicateResults int64
	// RingWraps, RingStart and RingEnd describe each input ring buffer.
	RingWraps []int64
	RingStart []int64
	RingEnd   []int64
}

// Debug snapshots the query's concurrency counters.
func (h *Handle) Debug() Debug {
	r := h.r
	rs := r.result
	d := Debug{
		TasksCreated:     r.taskSeq.Load(),
		Drained:          rs.drained.Load(),
		NextID:           rs.next.Load(),
		WindowWaits:      r.stats.windowWaits.Value(),
		DuplicateResults: rs.duplicates.Value(),
	}
	r.bufMu.Lock()
	for i := 0; i < r.plan.NumInputs(); i++ {
		if ring := r.ins[i].ring; ring != nil {
			d.RingWraps = append(d.RingWraps, ring.Wraps())
			d.RingStart = append(d.RingStart, ring.Start())
			d.RingEnd = append(d.RingEnd, ring.End())
		}
	}
	r.bufMu.Unlock()
	return d
}

// CheckQuiesced verifies the end-of-stream invariants after Drain: every
// created task was drained exactly once, the result slots are empty, and
// all input data has been released back to the rings. Calling it while
// the engine is still processing reports violations spuriously — it is a
// post-Drain check.
func (h *Handle) CheckQuiesced() error {
	r := h.r
	rs := r.result
	seq, drained, next := r.taskSeq.Load(), rs.drained.Load(), rs.next.Load()
	if drained != seq || next != seq {
		return fmt.Errorf("drain frontier %d/%d != %d tasks created", drained, next, seq)
	}
	for i := range rs.slots {
		if rs.slots[i].state.Load() != 0 {
			return fmt.Errorf("result slot %d still full", i)
		}
	}
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	for i := 0; i < r.plan.NumInputs(); i++ {
		if ring := r.ins[i].ring; ring != nil {
			if sz := ring.Size(); sz != 0 {
				return fmt.Errorf("input %d ring retains %d bytes", i, sz)
			}
		}
	}
	return nil
}

// InjectSlotLeak marks result slot 0 full without a matching deposit —
// exactly the state CheckQuiesced's slot sweep exists to catch. It is a
// mutation hook for harness self-tests (a checker that cannot see a
// planted leak guards nothing): call it only on a quiesced query, since
// on a live one the phantom slot would wedge the drainer.
func (h *Handle) InjectSlotLeak() {
	h.r.result.slots[0].state.Store(slotFull)
}
