package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/exec"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/overload"
	"saber/internal/ringbuf"
	"saber/internal/schema"
	"saber/internal/task"
	"saber/internal/window"
)

// registered is one query's runtime state: per-input circular buffers and
// dispatch positions, the compiled plan (and GPGPU program), and the
// result stage.
type registered struct {
	e    *Engine
	idx  int
	plan *exec.Plan
	prog *gpu.Program
	cost model.QueryCost

	insMu sync.Mutex
	ins   [2]*inputStream

	// bufMu additionally guards the ins[i].ring POINTER field (not the
	// ring's contents): release nils it under insMu+bufMu, so readers
	// outside the dispatch path (watchdog, Debug) take the
	// never-contended bufMu instead of insMu — which an admission wait
	// can hold across its entire bounded backpressure loop.
	bufMu sync.Mutex

	// ov is the query's effective overload-protection config: the
	// per-query override from RegisterOptions, else the engine's
	// Config.Overload. nil disables budgets and shedding for this query.
	ov *overload.Config

	// paused gates task cutting (Pause/Resume): admission continues,
	// dispatch stops at the current task boundary.
	paused atomic.Bool
	// dropped marks a deregistered tombstone: inserts stop admitting,
	// workers never see new tasks, and the buffers have been released.
	dropped atomic.Bool

	taskSeq atomic.Int64
	result  *resultStage
	stats   statsCounters
	over    overloadCounters
	// shedAdmitBytes is over.shedAdmit in bytes: the admission-shed volume
	// a checkpoint records, so that bytes an Insert has offered but not
	// yet admitted or shed at the barrier are never counted as shed.
	shedAdmitBytes atomic.Int64

	// shed makes the ShedWeighted coin flips; nil unless the engine has
	// an Overload config. Guarded by insMu (which also makes the flip
	// sequence deterministic for a seed).
	shed *overload.Shedder
	// shedTaskQuota is ShedOldest's worker-side escape valve: when the
	// bounded admission wait expires but every buffered byte is already
	// cut into queued tasks (so shedOldestLocked has nothing to cut),
	// admit grants one task of quota here and the next worker pickup for
	// this query delivers that task as an accounted gap instead of
	// executing it. FCFS pickup makes it the oldest queued work. Held at
	// most 1 so sheds stay paced one bounded wait apart.
	shedTaskQuota atomic.Int64

	// committed is the output byte offset covered by the newest durable
	// checkpoint — the exactly-once cutoff Handle.Committed reports to
	// downstream consumers. 0 until the first epoch persists.
	committed atomic.Int64
	// restoredRates carries a checkpoint's learned CPU/GPU throughput row
	// from Restore (pre-Start) to the matrix created at Start.
	restoredRates [2]float64

	// failMu guards failLog, a small ring of the most recent task errors
	// (diagnostics; counters carry the volume).
	failMu  sync.Mutex
	failLog []error
}

// maxFailLog bounds the retained per-query error history.
const maxFailLog = 8

// recordFailure appends a task error to the bounded failure log.
func (r *registered) recordFailure(err error) {
	if err == nil {
		return
	}
	r.failMu.Lock()
	if len(r.failLog) == maxFailLog {
		copy(r.failLog, r.failLog[1:])
		r.failLog = r.failLog[:maxFailLog-1]
	}
	r.failLog = append(r.failLog, err)
	r.failMu.Unlock()
}

// recentFailures snapshots the failure log, newest last.
func (r *registered) recentFailures() []error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	out := make([]error, len(r.failLog))
	copy(out, r.failLog)
	return out
}

type inputStream struct {
	ring      *ringbuf.Buffer
	tupleSize int
	// batchStart is the ring offset of the first undispatched byte;
	// firstIndex the absolute tuple index it corresponds to; prevTS the
	// timestamp of the last tuple already dispatched.
	batchStart int64
	firstIndex int64
	prevTS     int64
	// pendingSince stamps (unix ns) when the oldest undispatched byte
	// arrived, feeding the trace's ingest stage (batching delay). 0 when
	// nothing is pending. Guarded by insMu, like the dispatch positions.
	pendingSince int64
}

func newRegistered(e *Engine, idx int, plan *exec.Plan, ov *overload.Config) *registered {
	r := &registered{e: e, idx: idx, plan: plan, cost: model.Analyze(plan.Q), ov: ov}
	r.stats = newStatsCounters(e.reg, idx)
	r.over = newOverloadCounters(e.reg, idx)
	if ov != nil {
		// Offset the seed per query so two queries sharing a config do
		// not shed in lockstep.
		cfg := *ov
		cfg.Seed += int64(idx) * 7919
		r.shed = overload.NewShedder(cfg)
	}
	for i := 0; i < plan.NumInputs(); i++ {
		s := plan.InputSchema(i)
		r.ins[i] = &inputStream{
			ring:      ringbuf.MustNew(e.cfg.InputBufferSize),
			tupleSize: s.TupleSize(),
			prevTS:    window.NoPrev,
		}
		r.ins[i].ring.SetInvariantName(fmt.Sprintf("ringbuf[q%d/in%d]", idx, i))
	}
	r.result = newResultStage(r, e.cfg.ResultSlots)
	return r
}

// insert is the dispatching stage (paper §4.1): buffer the data, then cut
// fixed-size query tasks. Window boundary computation is postponed to the
// tasks; the dispatcher only advances O(1) counters.
//
// Admission is bounded-wait (see admit): backpressure against the ring
// and the Overload queue budget, with the configured shedding policy as
// the escape valve, and a quiesce abort so a blocked Insert can never
// deadlock Drain or Close. Every offered byte lands in exactly one
// accounting bucket — admitted (bytes.in), admission-shed, or gap-shed —
// so `offered == out + shed` holds at quiesce.
func (r *registered) insert(side int, data []byte) {
	if len(data) == 0 || r.dropped.Load() {
		return
	}
	start := r.padStart()
	in := r.ins[side]
	if len(data)%in.tupleSize != 0 {
		panic("engine: Insert data must be whole tuples")
	}
	r.insMu.Lock()
	// Re-check under the lock: a concurrent Deregister nils the ring
	// under insMu, so past this point the buffers are stable for the
	// whole call. A dropped query's bytes stay with the caller (neither
	// offered nor shed), like a rejected TryInsert.
	if r.dropped.Load() || in.ring == nil {
		r.insMu.Unlock()
		return
	}
	r.over.bytesOffered.Add(int64(len(data)))

	// Feed the ring in chunks no larger than half its capacity so that
	// arbitrarily large Insert calls simply experience backpressure. A
	// queue budget additionally caps the chunk at half the effective
	// budget: a chunk as large as the budget itself could only ever be
	// admitted into an empty ring, so a sub-phi residual (buffered bytes
	// too few to cut a task, released only at drain) would wedge
	// admission for good. Half leaves headroom for exactly that residue.
	chunk := in.ring.Capacity() / 2
	if ov := r.ov; ov != nil && ov.MaxQueueBytes > 0 {
		if b := overload.EffectiveBudget(ov.MaxQueueBytes, r.e.taskSize.Load(), 0) / 2; b < int64(chunk) {
			chunk = int(b)
		}
	}
	chunk -= chunk % in.tupleSize
	if chunk < in.tupleSize {
		chunk = in.tupleSize
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		switch r.admit(side, in, data[off:end]) {
		case admitDropped:
			// ShedWeighted dropped this chunk before admission.
			r.over.shedAdmit.Add(int64((end - off) / in.tupleSize))
			r.shedAdmitBytes.Add(int64(end - off))
			continue
		case admitQuiesced:
			// The engine began Drain/Close: nothing further can ever be
			// admitted. Account the rest as admission-shed and bail out
			// rather than block shutdown.
			r.over.shedAdmit.Add(int64((len(data) - off) / in.tupleSize))
			r.shedAdmitBytes.Add(int64(len(data) - off))
			r.insMu.Unlock()
			return
		}
		r.admitted(in, data[off:end])
	}
	r.insMu.Unlock()
	r.pad(start, len(data))
}

// admitted books p, which ring admission has just accepted into in, and
// cuts every full ϕ now pending unless the query is paused. Called with
// insMu held.
func (r *registered) admitted(in *inputStream, p []byte) {
	if in.pendingSince == 0 {
		in.pendingSince = time.Now().UnixNano()
	}
	r.stats.bytesIn.Add(int64(len(p)))
	if !r.paused.Load() {
		r.cutFull()
	}
}

// cutFull cuts every full ϕ of pending input into tasks. Called with
// insMu held.
func (r *registered) cutFull() {
	if r.plan.NumInputs() == 1 {
		for r.pendingBytes(0) >= r.e.taskSize.Load() {
			r.cutSingle()
		}
		return
	}
	for r.pendingBytes(0)+r.pendingBytes(1) >= r.e.taskSize.Load() && r.cutPair(false) {
	}
}

// padStart stamps the start of an Insert for pad: the zero time when
// padding is disabled, so a native run reads no clock per Insert.
func (r *registered) padStart() time.Time {
	if r.e.cfg.DisablePad {
		return time.Time{}
	}
	return time.Now()
}

// pad holds an Insert of n bytes that began at start to the model's
// dispatch cost, unless padding is disabled.
func (r *registered) pad(start time.Time, n int) {
	if !r.e.cfg.DisablePad {
		model.Pad(start, r.e.cfg.Model.DispatchTime(n))
	}
}

// admitVerdict is admit's outcome for one chunk.
type admitVerdict int

const (
	admitOK       admitVerdict = iota // chunk is in the ring
	admitDropped                      // ShedWeighted dropped it pre-admission
	admitQuiesced                     // engine is shutting down; nothing admitted
)

// admit places one chunk into the input ring with bounded waiting.
// Called with insMu held. The loop:
//
//   - aborts as soon as the engine quiesces (Drain/Close), which is the
//     no-deadlock guarantee: the ring may never drain once workers stop,
//     so waiting here would wedge shutdown behind insMu;
//   - admits when the chunk fits both the ring and the effective
//     Overload queue budget;
//   - once the bounded wait (Overload.MaxWait) expires with the shedding
//     policy armed, actuates it — ShedOldest frees budget by cutting the
//     stalest undispatched range as an accounted gap task, ShedWeighted
//     drops the incoming chunk with the per-source weighted coin;
//   - otherwise parks on the result stage's progress signal, fired by a
//     drain, by the engine quiescing, resizing ϕ, arming shedding or
//     dropping the query, and at the MaxWait deadline while the policy
//     could act.
func (r *registered) admit(side int, in *inputStream, p []byte) admitVerdict {
	ov := r.ov
	// since stamps when the current bounded wait began. MaxWait is wall
	// time, measured with time.Since; the deadline timer only fires
	// progress to wake the check.
	var since time.Time
	for {
		gen := r.result.progress.Gen()
		if r.e.quiesced.Load() || r.dropped.Load() {
			return admitQuiesced
		}
		if !r.overBudget(in, int64(len(p))) {
			if _, ok := in.ring.TryPut(p); ok {
				return admitOK
			}
		}
		if since.IsZero() {
			since = time.Now()
			r.over.admitWaits.Add(1)
		}
		// The policy actuates only while armed and when the configured
		// budget is the binding constraint. A ring-full block within
		// budget is ordinary backpressure and must stay lossless —
		// otherwise a generous budget over a small ring would shed where
		// the operator asked for blocking.
		shedding := ov != nil && ov.Policy != overload.ShedNone && r.e.shedArmed.Load() && r.overBudget(in, int64(len(p)))
		if shedding && time.Since(since) >= ov.MaxWait {
			switch ov.Policy {
			case overload.ShedOldest:
				if r.shedOldestLocked(side) {
					// The gap's space is reclaimed asynchronously at the
					// drain frontier, so pace further sheds by another
					// bounded wait instead of cascading through all
					// pending data at once.
					since = time.Now()
					continue
				}
				// Nothing undispatched to shed — the eager dispatcher has
				// already cut everything into queued tasks. Grant the
				// worker-side quota instead: the next pickup for this
				// query sheds its (oldest queued) task as a gap, and its
				// drain reclaims the budget. One grant at a time keeps
				// sheds paced one bounded wait apart.
				r.shedTaskQuota.CompareAndSwap(0, 1)
				since = time.Now()
			case overload.ShedWeighted:
				if r.shed.DropChunk(side) {
					return admitDropped
				}
				since = time.Now() // survived the coin; re-wait before re-flipping
			}
		}
		var deadline *time.Timer
		if shedding {
			deadline = time.AfterFunc(time.Until(since.Add(ov.MaxWait)), func() { r.result.progress.Fire(-1) })
		}
		r.result.progress.Park(gen)
		if deadline != nil {
			deadline.Stop()
		}
	}
}

// overBudget reports whether admitting need more bytes would exceed the
// input's effective queue budget (Overload.MaxQueueBytes floored to stay
// cuttable; see overload.EffectiveBudget). Ring occupancy — buffered but
// not yet released bytes — is the queue-depth measure.
func (r *registered) overBudget(in *inputStream, need int64) bool {
	ov := r.ov
	if ov == nil || ov.MaxQueueBytes <= 0 {
		return false
	}
	budget := overload.EffectiveBudget(ov.MaxQueueBytes, r.e.taskSize.Load(), need)
	return in.ring.Size()+need > budget
}

// shedOldestLocked cuts up to one ϕ of the oldest undispatched tuples on
// side as a gap task delivered straight to the result stage: their ring
// space is reclaimed in drain order, timestamp continuity is preserved
// through the usual EndPrevTS bookkeeping, and the tuples are counted
// shed — exactly the quarantine machinery, driven by policy instead of
// failure. Called with insMu held; returns false when nothing is
// undispatched.
func (r *registered) shedOldestLocked(side int) bool {
	in := r.ins[side]
	n := r.e.taskSize.Load() / int64(in.tupleSize)
	if n < 1 {
		n = 1
	}
	if r.pendingBytes(side)/int64(in.tupleSize) < n {
		// Never shed a sub-ϕ range: a gap narrower than a task would shift
		// every later count-window boundary off the task grid, stranding
		// straddled windows open until the end-of-stream flush. Defer to
		// the worker-side quota, which sheds whole queued tasks only.
		return false
	}
	var tuples [2]int64
	tuples[side] = n
	r.emit(tuples, true)
	r.stats.tuplesShed.Add(n)
	r.over.shedOldest.Add(n)
	return true
}

// takeShedTask consumes the worker-side ShedOldest quota (0 or 1).
// Workers call it on every pickup; it is a single load on the (vastly
// common) unarmed path.
func (r *registered) takeShedTask() bool {
	return r.shedTaskQuota.Load() > 0 && r.shedTaskQuota.CompareAndSwap(1, 0)
}

func (r *registered) pendingBytes(side int) int64 {
	in := r.ins[side]
	return in.ring.End() - in.batchStart
}

// cutSingle dispatches one task of exactly ϕ bytes (tuple-aligned) from
// the single input. ϕ is re-read per cut, so an adaptive resize takes
// effect at the very next task boundary.
func (r *registered) cutSingle() {
	in := r.ins[0]
	n := r.e.taskSize.Load() / int64(in.tupleSize)
	if n < 1 {
		n = 1
	}
	r.emit([2]int64{n, 0}, false)
}

// cutPair dispatches a two-input task, splitting both inputs' pending
// data proportionally so the combined volume approximates TaskSize. When
// the application feeds the two inputs stream-aligned (as the paper's
// join workloads do), proportional cuts keep the batches aligned even for
// rate-mismatched inputs such as SG3's local/global averages. Returns
// false when nothing is pending.
func (r *registered) cutPair(tail bool) bool {
	a, b := r.ins[0], r.ins[1]
	pa := r.pendingBytes(0) / int64(a.tupleSize)
	pb := r.pendingBytes(1) / int64(b.tupleSize)
	if pa == 0 && pb == 0 {
		return false
	}
	na, nb := pa, pb
	if !tail {
		phi := r.e.taskSize.Load()
		total := pa*int64(a.tupleSize) + pb*int64(b.tupleSize)
		if total > phi {
			f := float64(phi) / float64(total)
			na = int64(float64(pa) * f)
			nb = int64(float64(pb) * f)
			if na == 0 && nb == 0 {
				return false
			}
		}
	}
	r.emit([2]int64{na, nb}, false)
	return true
}

// emit cuts tuples[i] tuples from each input and enqueues the task.
// With shed set the task is a policy-shed gap: it is sequenced and
// accounted like any other cut (ring release, timestamp continuity,
// drain barrier) but delivered straight to the result stage as a gap
// instead of being scheduled.
func (r *registered) emit(tuples [2]int64, shed bool) {
	t := &task.Task{
		Query:   r.idx,
		ID:      r.taskSeq.Add(1) - 1,
		Created: time.Now().UnixNano(),
	}
	t.Trace = r.e.tracer.Begin(r.idx, t.ID, t.Created)
	// Ingest stage: how long the batch's oldest byte waited in the rings
	// before the dispatcher cut this task.
	oldest := int64(0)
	for i := 0; i < r.plan.NumInputs(); i++ {
		if p := r.ins[i].pendingSince; p > 0 && (oldest == 0 || p < oldest) {
			oldest = p
		}
	}
	if oldest > 0 {
		t.Trace.SetStage(obs.StageIngest, time.Duration(t.Created-oldest))
	}
	for i := 0; i < r.plan.NumInputs(); i++ {
		in := r.ins[i]
		n := tuples[i]
		end := in.batchStart + n*int64(in.tupleSize)
		var data []byte
		if n > 0 {
			if view, ok := in.ring.Contiguous(in.batchStart, end); ok {
				data = view
			} else {
				data = in.ring.CopyTo(nil, in.batchStart, end)
			}
		}
		t.In[i] = exec.Batch{Data: data, Ctx: window.Context{
			FirstIndex:    in.firstIndex,
			PrevTimestamp: in.prevTS,
		}}
		t.FreeTo[i] = end
		if n > 0 {
			last := data[(n-1)*int64(in.tupleSize):]
			in.prevTS = r.plan.InputSchema(i).Timestamp(last)
		}
		// Stamp the batch-end timestamp on the task: the result stage
		// records it at the drain frontier so a checkpoint can restore
		// window.Context continuity for the first post-recovery batch.
		t.EndPrevTS[i] = in.prevTS
		in.batchStart = end
		in.firstIndex += n
		// Re-arm the pending stamp for the bytes left behind. Their true
		// arrival is unknown (between the old stamp and now), so restart
		// the clock — the ingest stage under-reports by at most one task's
		// batching interval.
		if in.ring.End() == end {
			in.pendingSince = 0
		} else {
			in.pendingSince = t.Created
		}
	}
	r.stats.tasksCreated.Add(1)
	if shed {
		r.result.deliverGap(t)
		return
	}
	if !r.e.queue.PushOpen(t) {
		// The queue closed between the admission quiesce check and this
		// cut — Close (which closes the queue without the dispatch lock)
		// racing an Insert. The task is already sequenced and the drain
		// barrier counts it, so record it as a shed gap no worker will
		// ever run instead of panicking on the closed queue.
		if r.result.deliverGap(t) {
			n := tuples[0] + tuples[1]
			r.stats.tuplesShed.Add(n)
		}
	}
}

// tryInsert is the non-blocking admission path: the whole payload is
// admitted iff it fits the ring and the queue budget right now, else
// nothing is consumed and the caller keeps the data (count in
// admit.rejects). Unlike insert it never waits and never sheds.
func (r *registered) tryInsert(side int, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	start := r.padStart()
	in := r.ins[side]
	if len(data)%in.tupleSize != 0 {
		panic("engine: Insert data must be whole tuples")
	}
	r.insMu.Lock()
	if r.e.quiesced.Load() || r.dropped.Load() || in.ring == nil || r.overBudget(in, int64(len(data))) {
		r.insMu.Unlock()
		r.over.admitRejects.Add(1)
		return false
	}
	if _, ok := in.ring.TryPut(data); !ok {
		r.insMu.Unlock()
		r.over.admitRejects.Add(1)
		return false
	}
	// Offered counts only what admission took responsibility for: a
	// rejected TryInsert leaves the bytes with the caller, so they are
	// neither offered nor shed.
	r.over.bytesOffered.Add(int64(len(data)))
	r.admitted(in, data)
	r.insMu.Unlock()
	r.pad(start, len(data))
	return true
}

// dispatchTail flushes any remaining partial batch as a final (smaller)
// task, regardless of pause state. Called with the engine's dispatch
// lock held, during Drain and Deregister.
func (r *registered) dispatchTail() {
	r.insMu.Lock()
	defer r.insMu.Unlock()
	if r.ins[0] == nil || r.ins[0].ring == nil {
		return // already released
	}
	if r.plan.NumInputs() == 1 {
		if n := r.pendingBytes(0) / int64(r.ins[0].tupleSize); n > 0 {
			r.emit([2]int64{n, 0}, false)
		}
		return
	}
	for r.cutPair(true) {
	}
}

// cutBacklog cuts every full ϕ of data buffered while the query was
// paused (Resume's catch-up path).
func (r *registered) cutBacklog() {
	r.insMu.Lock()
	defer r.insMu.Unlock()
	if r.ins[0] == nil || r.ins[0].ring == nil {
		return
	}
	r.cutFull()
}

// awaitTaskBoundary blocks until every task cut so far has drained —
// the quiesce point Pause, Deregister and Drain converge on. Returns early
// if the engine is closed (workers are gone; nothing further will drain).
func (r *registered) awaitTaskBoundary() {
	for {
		gen := r.result.progress.Gen()
		if r.result.drained.Load() >= r.taskSeq.Load() || r.e.stopped.Load() {
			return
		}
		r.result.progress.Park(gen)
	}
}

// release frees a dropped query's buffer memory: the metric mirrors are
// rebound to zero functions (dropping their captured ring pointers), then
// the ring references are cut under insMu (dispatch path) plus bufMu
// (watchdog/debug readers). The registered entry itself stays as a
// tombstone.
func (r *registered) release() {
	r.e.bindBufferMirrors(r, true)
	r.insMu.Lock()
	r.bufMu.Lock()
	for i := 0; i < r.plan.NumInputs(); i++ {
		if in := r.ins[i]; in != nil {
			in.ring = nil
		}
	}
	r.bufMu.Unlock()
	r.insMu.Unlock()
}

// OutputSchema of the query.
func (r *registered) OutputSchema() *schema.Schema { return r.plan.OutputSchema() }
