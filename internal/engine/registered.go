package engine

import (
	"fmt"
	"slices"
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
		r.admitted(in, data[off:end], waitIngest)
	}
	r.insMu.Unlock()
	r.pad(start, len(data))
}

// admitted books p, which ring admission has just accepted into in, and
// cuts every full ϕ now pending unless the query is paused. Called with
// insMu held.
func (r *registered) admitted(in *inputStream, p []byte, w cutWait) {
	if in.pendingSince == 0 {
		in.pendingSince = time.Now().UnixNano()
	}
	r.stats.bytesIn.Add(int64(len(p)))
	if !r.paused.Load() {
		r.cutFull(w)
	}
}

// cutFull cuts every full ϕ of pending input into tasks while the result
// window has room. ϕ is read once per cut, so an adaptive resize takes
// effect at a task boundary and never sizes a cut past the pending data.
// Called with insMu held.
func (r *registered) cutFull(w cutWait) {
	for {
		tuples, ok := r.nextCut(r.e.taskSize.Load(), r.pending())
		if !ok || !r.windowOpen(w) {
			return
		}
		r.emit(tuples)
	}
}

// pending is the bytes buffered but not yet cut, per input.
func (r *registered) pending() (p [2]int64) {
	for i := 0; i < r.plan.NumInputs(); i++ {
		p[i] = r.pendingBytes(i)
	}
	return p
}

// nextCut sizes a task of ϕ from p pending bytes per input. A single input
// gives exactly ϕ bytes (tuple-aligned). Two inputs split their pending
// data proportionally so the combined volume approximates ϕ: when the
// application feeds the two inputs stream-aligned (as the paper's join
// workloads do), proportional cuts keep the batches aligned even for
// rate-mismatched inputs such as SG3's local/global averages. ok is false
// while less than ϕ is pending.
func (r *registered) nextCut(phi int64, p [2]int64) (tuples [2]int64, ok bool) {
	a := r.ins[0]
	if r.plan.NumInputs() == 1 {
		if p[0] < phi {
			return tuples, false
		}
		tuples[0] = max(phi/int64(a.tupleSize), 1)
		return tuples, true
	}
	b := r.ins[1]
	pa := p[0] / int64(a.tupleSize)
	pb := p[1] / int64(b.tupleSize)
	total := pa*int64(a.tupleSize) + pb*int64(b.tupleSize)
	if total < phi {
		return tuples, false
	}
	tuples = [2]int64{pa, pb}
	if total > phi {
		f := float64(phi) / float64(total)
		tuples = [2]int64{int64(float64(pa) * f), int64(float64(pb) * f)}
	}
	return tuples, tuples != [2]int64{}
}

// cutWait says whether, and until when, a cut parks for the result
// window.
type cutWait int

const (
	noWait     cutWait = iota // TryInsert and a blocked admission never park
	waitIngest                // Insert and Resume give up once the query pauses or drops or the engine quiesces
	waitTail                  // Drain and Deregister flush the residue whatever the query's state
)

// windowOpen reports whether the next task ID fits the result window,
// taskSeq < next + ResultSlots, parking on drain progress until it does
// as w allows. Cutting only inside the window keeps every deposit in a
// slot of its own, so the result stage needs no second path for results
// that arrive too far ahead of the drain frontier. Called with insMu held,
// which is what keeps the check and the cut it admits atomic; no wait
// outlives the workers that advance the frontier.
func (r *registered) windowOpen(w cutWait) bool {
	rs := r.result
	waited := false
	for {
		gen := rs.progress.Gen()
		if r.taskSeq.Load() < rs.next.Load()+int64(len(rs.slots)) {
			return true
		}
		e := r.e
		if w == noWait || !e.started.Load() || e.stopped.Load() ||
			w == waitIngest && (e.quiesced.Load() || r.dropped.Load() || r.paused.Load()) {
			return false
		}
		if !waited {
			waited = true
			r.stats.windowWaits.Add(1)
		}
		rs.progress.Park(gen)
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
//     policy armed, actuates it — ShedOldest frees budget by delivering
//     the query's oldest queued task as an accounted gap (see shedQueued),
//     ShedWeighted drops the incoming chunk with the per-source weighted
//     coin;
//   - otherwise parks on the result stage's progress signal, fired by a
//     drain, by the engine quiescing, resizing ϕ, arming shedding,
//     resuming or dropping the query, and at the MaxWait deadline while
//     the policy could act. A query with nothing queued gives ShedOldest
//     nothing to act on, so a paused one waits for Resume, Drain or
//     Close, as under ShedNone.
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
		// The ring may hold full ϕ no earlier call could cut (bytes
		// buffered before Start or ahead of a ϕ shrink): cut what the
		// window takes, so that their drain makes room for p.
		if !r.paused.Load() {
			r.cutFull(noWait)
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
				if r.shedQueued() {
					// The gap's space is reclaimed at the drain frontier,
					// so pace further sheds by another bounded wait
					// instead of cascading through the queue at once.
					since = time.Now()
					continue
				}
				// Nothing of the query is queued: it is paused or all its
				// tasks are in flight. Their drain, Resume, Drain or
				// Close fires progress; no deadline can change that.
				shedding = false
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

// shedQueued is ShedOldest's shed: it takes the query's oldest queued
// task out of the system-wide queue, whichever processor would have run
// it, and delivers it as an accounted gap, so its drain reclaims the
// task's ring span. Whole tasks keep every later window boundary on the
// task grid. Called with insMu held; returns false when none of the
// query's tasks is queued.
func (r *registered) shedQueued() bool {
	t := r.e.queue.Select(func(items []*task.Task) int {
		return slices.IndexFunc(items, func(t *task.Task) bool { return t.Query == r.idx })
	})
	if t == nil {
		return false
	}
	if r.result.deliverGap(t) {
		n := int64(taskTuples(r, t))
		r.stats.tuplesShed.Add(n)
		r.over.shedOldest.Add(n)
	}
	return true
}

func (r *registered) pendingBytes(side int) int64 {
	in := r.ins[side]
	return in.ring.End() - in.batchStart
}

// emit cuts tuples[i] tuples from each input and enqueues the task.
func (r *registered) emit(tuples [2]int64) {
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
// admitted iff it fits the ring and the queue budget right now and, unless
// the query is paused, the result window takes every task it completes;
// else nothing is consumed and the caller keeps the data (count in
// admit.rejects). Unlike insert it never waits and never sheds, and it
// leaves no full ϕ uncut for a later call to find.
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
	ok := !r.e.quiesced.Load() && !r.dropped.Load() && in.ring != nil &&
		!r.overBudget(in, int64(len(data))) && r.windowTakes(side, int64(len(data)))
	if ok {
		_, ok = in.ring.TryPut(data)
	}
	if !ok {
		r.insMu.Unlock()
		r.over.admitRejects.Add(1)
		return false
	}
	// Offered counts only what admission took responsibility for: a
	// rejected TryInsert leaves the bytes with the caller, so they are
	// neither offered nor shed.
	r.over.bytesOffered.Add(int64(len(data)))
	r.admitted(in, data, noWait)
	r.insMu.Unlock()
	r.pad(start, len(data))
	return true
}

// windowTakes reports whether the result window's free slots take every
// cut of ϕ that n more bytes on side complete, so that none is left
// uncut. A paused query cuts nothing until Resume, so its bytes need no
// slots. Called with insMu held.
func (r *registered) windowTakes(side int, n int64) bool {
	if r.paused.Load() {
		return true
	}
	p, phi := r.pending(), r.e.taskSize.Load()
	p[side] += n
	room := r.result.next.Load() + int64(len(r.result.slots)) - r.taskSeq.Load()
	for ; ; room-- {
		tuples, ok := r.nextCut(phi, p)
		if !ok {
			return true
		}
		if room <= 0 {
			return false
		}
		for i := 0; i < r.plan.NumInputs(); i++ {
			p[i] -= tuples[i] * int64(r.ins[i].tupleSize)
		}
	}
}

// dispatchTail cuts every full ϕ still pending, then flushes the partial
// batch left as a final (smaller) task, regardless of pause state, each
// once the result window has room. Called with the engine's dispatch
// lock held, during Drain and Deregister.
func (r *registered) dispatchTail() {
	r.insMu.Lock()
	defer r.insMu.Unlock()
	if r.ins[0] == nil || r.ins[0].ring == nil {
		return // already released
	}
	r.cutFull(waitTail)
	var tuples [2]int64
	for i := 0; i < r.plan.NumInputs(); i++ {
		tuples[i] = r.pendingBytes(i) / int64(r.ins[i].tupleSize)
	}
	if tuples != [2]int64{} && r.windowOpen(waitTail) {
		r.emit(tuples)
	}
}

// cutBacklog cuts every full ϕ of data buffered while the query was
// paused or before Start (Resume's and Start's catch-up path).
func (r *registered) cutBacklog() {
	r.insMu.Lock()
	defer r.insMu.Unlock()
	if r.ins[0] == nil || r.ins[0].ring == nil {
		return
	}
	r.cutFull(waitIngest)
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
