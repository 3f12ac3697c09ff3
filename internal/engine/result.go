package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/exec"
	"saber/internal/obs"
	"saber/internal/task"
	"saber/internal/window"
)

// resultStage implements paper §4.3: a slotted circular result buffer
// indexed by query task identifier with atomic control flags, so parallel
// workers deposit out-of-order results without blocking each other, and
// whichever worker holds the next in-order slot drains it — running the
// assembly operator function and appending to the output stream.
//
// The dispatcher cuts a task only while its ID is inside the window
// [next, next+slots) (registered.windowOpen), so every delivery has a
// slot of its own. With task failover (GPU → CPU retries, late results
// from a hung device) the same task ID can be delivered more than once;
// the stage guarantees exactly-once assembly: a delivery must CAS-claim
// its slot, and every losing delivery is discarded. Quarantined tasks
// deposit a gap entry that releases the task's inputs and advances the
// drain frontier without emitting output, so a poisoned task cannot
// wedge assembly.
type resultStage struct {
	r     *registered
	slots []resultSlot
	mask  int64

	next    atomic.Int64 // next task ID to drain
	drained atomic.Int64 // tasks fully assembled
	drainMu sync.Mutex

	progress task.Signal // fired per drained task; admit, windowOpen and awaitTaskBoundary park on it

	asm *exec.Assembler

	// duplicates counts deliveries discarded because another attempt of
	// the same task already claimed the slot (or the task had already
	// drained) — the exactly-once guarantee at work.
	duplicates *obs.Counter // saber.engine.q<i>.result.duplicates

	sinkMu sync.RWMutex
	sink   func([]byte)

	// lastFreeTo/lastPrevTS record, per input, the free pointer and the
	// end-of-batch timestamp of the last task drained — the input replay
	// cursor and window.Context continuity at the frontier. Guarded by
	// drainMu (updated by the drainer, read by the checkpoint capture).
	lastFreeTo [2]int64
	lastPrevTS [2]int64
}

// slotEntry is one deposited delivery.
type slotEntry struct {
	res       *exec.TaskResult
	freeTo    [2]int64
	endPrevTS [2]int64
	start     int64          // task creation stamp for latency accounting
	gap       bool           // quarantined task: release inputs, skip assembly
	tr        *obs.TaskTrace // winning delivery's trace, finished at drain
}

// Slot control-flag states (the paper's control buffer, extended with a
// claim state so concurrent re-deliveries of one task resolve by CAS).
const (
	slotFree    int32 = 0
	slotFull    int32 = 1
	slotClaimed int32 = 2 // a deliverer won the CAS and is writing fields
)

type resultSlot struct {
	state atomic.Int32
	id    atomic.Int64 // task ID occupying the slot (valid once claimed)
	entry slotEntry    // the winning delivery (valid once full)
}

func newResultStage(r *registered, slots int) *resultStage {
	rs := &resultStage{
		r:          r,
		slots:      make([]resultSlot, slots),
		mask:       int64(slots) - 1,
		asm:        exec.NewAssembler(r.plan),
		duplicates: r.e.reg.Counter(qname(r.idx, "result.duplicates")),
	}
	for i := range rs.slots {
		rs.slots[i].id.Store(-1)
	}
	rs.lastPrevTS = [2]int64{window.NoPrev, window.NoPrev}
	return rs
}

// deliver stores a completed task's result in its slot (task ID modulo
// the buffer size) and attempts an in-order drain. It reports whether
// this delivery won the slot; a false return means another attempt of
// the same task delivered first (or the task already drained) and res
// was discarded — the caller must not count the task as executed.
func (rs *resultStage) deliver(t *task.Task, res *exec.TaskResult) bool {
	return rs.deposit(t, res, false)
}

// deliverGap records a quarantined task: its inputs are released and the
// drain frontier advances past it without emitting output. Returns false
// if a real result for the task already claimed the slot.
func (rs *resultStage) deliverGap(t *task.Task) bool {
	return rs.deposit(t, nil, true)
}

// deposit claims t's slot with exactly-once semantics. The dispatcher
// never cuts past the window, so t.ID < next+slots, and each ID in
// [next, next+slots) maps to a slot of its own: an occupied slot holds
// either another attempt of this very task or its previous occupant
// (ID−slots), which has just drained and is being freed.
func (rs *resultStage) deposit(t *task.Task, res *exec.TaskResult, gap bool) bool {
	s := &rs.slots[t.ID&rs.mask]
	for {
		if t.ID < rs.next.Load() {
			// Already drained: a late duplicate (e.g. a hung GPU task
			// completing after its CPU retry). Discard.
			rs.discardDup(res)
			return false
		}
		if !s.state.CompareAndSwap(slotFree, slotClaimed) {
			// Another attempt of this task owns the slot once its ID is
			// visible: discard ours. Until then the occupant is still
			// publishing, or is the previous occupant being freed — retry.
			if s.id.Load() == t.ID {
				rs.discardDup(res)
				return false
			}
			runtime.Gosched()
			continue
		}
		// Claim won. Publish the ID first so racing duplicates can see
		// who owns the slot, then re-validate: another attempt may have
		// filled this slot and drained it between our frontier check and
		// the CAS. The drainer advances the frontier before it frees a
		// slot, so such a stale claim always sees t.ID < next here.
		s.id.Store(t.ID)
		if t.ID < rs.next.Load() {
			s.state.Store(slotFree)
			rs.discardDup(res)
			return false
		}
		s.entry = slotEntry{res: res, freeTo: t.FreeTo, endPrevTS: t.EndPrevTS, start: t.Created, gap: gap, tr: t.Trace}
		t.Trace.SetAttempts(t.Attempts)
		t.Trace.MarkDelivered(time.Now().UnixNano())
		s.state.Store(slotFull)
		rs.tryDrain()
		return true
	}
}

func (rs *resultStage) discardDup(res *exec.TaskResult) {
	rs.duplicates.Add(1)
	if res != nil {
		rs.r.plan.ReleaseResult(res)
	}
}

// tryDrain drains consecutive in-order results while any are available.
// Only one worker drains at a time; a worker that loses the race but
// still sees its in-order slot full retries, closing the window in which
// a concurrent drainer may have just missed it.
func (rs *resultStage) tryDrain() {
	for {
		n := rs.next.Load()
		if rs.slots[n&rs.mask].state.Load() != slotFull {
			return
		}
		if !rs.drainMu.TryLock() {
			runtime.Gosched()
			continue
		}
		rs.drainLocked()
		rs.drainMu.Unlock()
	}
}

func (rs *resultStage) drainLocked() {
	r := rs.r
	for {
		n := rs.next.Load()
		s := &rs.slots[n&rs.mask]
		if s.state.Load() != slotFull || s.id.Load() != n {
			return
		}
		e := s.entry
		s.entry = slotEntry{}
		// Advance the frontier BEFORE freeing the slot. A duplicate
		// delivery of n can CAS-claim the slot the instant it frees; its
		// re-validation must then observe next > n and unwind — if the
		// slot freed first, the duplicate could pass re-validation,
		// publish slotFull a second time (double delivery) and wedge the
		// slot with a stale ID for every later occupant.
		rs.next.Add(1)
		s.state.Store(slotFree)

		if e.gap {
			// Quarantined task: the gap is recorded in the query's shed
			// counters; assembly simply continues past it.
		} else {
			rs.emit(rs.asm.Drain(e.res, nil))
		}

		// Advance the checkpoint frontier bookkeeping. Gap entries count
		// too: their input range is released below and must not be
		// replayed after a restore.
		for i := 0; i < r.plan.NumInputs(); i++ {
			rs.lastFreeTo[i] = e.freeTo[i]
			rs.lastPrevTS[i] = e.endPrevTS[i]
		}

		// Release input data up to the task's free pointers and recycle
		// the result.
		for i := 0; i < r.plan.NumInputs(); i++ {
			r.ins[i].ring.Release(e.freeTo[i])
		}
		if e.res != nil {
			r.plan.ReleaseResult(e.res)
		}
		now := time.Now().UnixNano()
		if e.start > 0 && !e.gap {
			r.stats.latencyNs.Add(now - e.start)
			r.stats.latencyN.Add(1)
		}
		r.e.tracer.Finish(e.tr, now, e.gap)
		rs.drained.Add(1)
		rs.progress.Fire(-1)
	}
}

// flush finalises still-open windows at end of stream.
func (rs *resultStage) flush() {
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	rs.emit(rs.asm.Flush(nil))
}

func (rs *resultStage) emit(out []byte) {
	if len(out) == 0 {
		return
	}
	r := rs.r
	r.stats.bytesOut.Add(int64(len(out)))
	r.stats.tuplesOut.Add(int64(len(out) / r.plan.OutputSchema().TupleSize()))
	rs.sinkMu.RLock()
	fn := rs.sink
	rs.sinkMu.RUnlock()
	if fn != nil {
		fn(out)
	}
}

func (rs *resultStage) setSink(fn func([]byte)) {
	rs.sinkMu.Lock()
	rs.sink = fn
	rs.sinkMu.Unlock()
}
