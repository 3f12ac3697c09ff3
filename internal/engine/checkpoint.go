package engine

// Epoch checkpointing and crash recovery (see internal/ckpt and DESIGN.md
// §11). The coordinator snapshots each query at its result stage's drain
// frontier: because drainLocked merges results strictly in task-ID order
// under drainMu, holding that lock gives a barrier B = next where the
// committed output bytes, the assembler's pending windows and the input
// release cursors all describe exactly tasks [0, B). Capture is the only
// step inside engine locks; encode, write and fsync run on the
// coordinator goroutine.

import (
	"fmt"
	"time"

	"saber/internal/ckpt"
	"saber/internal/obs"
	"saber/internal/sched"
)

// ckptMetrics are the engine-wide checkpoint counters, registered under
// saber.ckpt.*.
type ckptMetrics struct {
	epochs     *obs.Counter   // saber.ckpt.epochs — snapshots persisted
	bytes      *obs.Counter   // saber.ckpt.bytes — encoded bytes written
	failures   *obs.Counter   // saber.ckpt.failures — snapshots that failed to persist
	corrupt    *obs.Counter   // saber.ckpt.corrupt — torn/corrupt files skipped at recovery
	snapshotNs *obs.Histogram // saber.ckpt.snapshot.ns — capture+persist latency
	recoverNs  *obs.Histogram // saber.ckpt.recover.ns — Restore latency
	lastEpoch  *obs.Gauge     // saber.ckpt.epoch — newest persisted/restored epoch
}

func newCkptMetrics(reg *obs.Registry) ckptMetrics {
	return ckptMetrics{
		epochs:     reg.Counter("saber.ckpt.epochs"),
		bytes:      reg.Counter("saber.ckpt.bytes"),
		failures:   reg.Counter("saber.ckpt.failures"),
		corrupt:    reg.Counter("saber.ckpt.corrupt"),
		snapshotNs: reg.Histogram("saber.ckpt.snapshot.ns"),
		recoverNs:  reg.Histogram("saber.ckpt.recover.ns"),
		lastEpoch:  reg.Gauge("saber.ckpt.epoch"),
	}
}

// ckptKeep is how many epochs the store retains; older files are
// garbage-collected.
const ckptKeep = 3

// store lazily opens the checkpoint store (New cannot return an error).
func (e *Engine) store() (*ckpt.Store, error) {
	if e.cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("engine: Checkpoint without Config.CheckpointDir")
	}
	e.ckptOnce.Do(func() {
		e.ckptStore, e.ckptErr = ckpt.Open(e.cfg.CheckpointDir, ckptKeep)
	})
	return e.ckptStore, e.ckptErr
}

// Checkpoint cuts one epoch: it captures every query's state at its
// current drain frontier and durably persists the snapshot. Safe to call
// while the engine is running; the automatic loop (CheckpointInterval)
// calls it too. Returns the persisted snapshot.
func (e *Engine) Checkpoint() (*ckpt.Snapshot, error) {
	st, err := e.store()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	snap := &ckpt.Snapshot{
		Epoch: uint64(e.ckptEpoch.Add(1)),
		Phi:   e.taskSize.Load(),
	}
	// Capture under regMu so the statement log and the per-query state
	// describe one consistent catalog generation: a concurrent DDL either
	// lands wholly before this epoch or wholly after it. The statement
	// source must be lock-free (see SetStatementSource). Dropped
	// tombstones are excluded — their state is gone and their statements
	// have left the log.
	e.regMu.Lock()
	var captured []*registered
	if fn := e.statementSource(); fn != nil {
		snap.Statements = fn()
	}
	for _, r := range e.queries() {
		if r.dropped.Load() {
			continue
		}
		captured = append(captured, r)
		qs := r.result.capture()
		if e.matrix != nil {
			qs.RateCPU = e.matrix.Rate(r.idx, sched.CPU)
			qs.RateGPU = e.matrix.Rate(r.idx, sched.GPU)
		}
		snap.Queries = append(snap.Queries, qs)
	}
	e.regMu.Unlock()
	if _, n, err := st.Save(snap); err != nil {
		e.ckm.failures.Add(1)
		return nil, err
	} else {
		e.ckm.bytes.Add(int64(n))
	}
	e.ckm.epochs.Add(1)
	e.ckm.lastEpoch.Set(int64(snap.Epoch))
	e.ckm.snapshotNs.Observe(time.Since(start).Nanoseconds())
	// Publish the new exactly-once cutoffs only after the epoch is
	// durable: Handle.Committed must never run ahead of disk. captured
	// is index-aligned with snap.Queries (both skipped tombstones).
	for i, r := range captured {
		r.committed.Store(snap.Queries[i].CommittedBytes)
	}
	return snap, nil
}

// ckptLoop is the automatic epoch coordinator: it cuts an epoch every
// CheckpointInterval until Close. A failed epoch is counted in
// saber.ckpt.failures and retried at the next tick.
func (e *Engine) ckptLoop() {
	defer e.ckptWG.Done()
	tick := time.NewTicker(e.cfg.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.ckptStop:
			return
		case <-tick.C:
			_, _ = e.Checkpoint()
		}
	}
}

// capture snapshots one query at its drain frontier. Holding drainMu
// excludes the drainer, so next, the committed-output counters, the
// pending windows and the per-input frontier bookkeeping are mutually
// consistent: all reflect exactly tasks [0, next).
func (rs *resultStage) capture() ckpt.QuerySnap {
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	r := rs.r
	in := r.stats.bytesIn.Value()
	qs := ckpt.QuerySnap{
		Name:            r.plan.Q.Name,
		Barrier:         rs.next.Load(),
		CommittedBytes:  r.stats.bytesOut.Value(),
		CommittedTuples: r.stats.tuplesOut.Value(),
		Pending:         rs.asm.Export(),
		// The overload ledger is maintained under insMu, which capture
		// cannot take: a parked Insert holds it until the drainer (or a
		// Resume, behind regMu) makes room. Offered is recorded as
		// admitted plus admission-shed rather than read from
		// bytes.offered, which also counts what an Insert in flight has
		// yet to admit — bytes the feeder replays after a restore. The
		// shed counters are exact unless an admission shed lands during
		// capture.
		OfferedBytes:     in + r.shedAdmitBytes.Load(),
		InBytes:          in,
		ShedTuples:       r.stats.tuplesShed.Value(),
		ShedAdmitTuples:  r.over.shedAdmit.Value(),
		ShedOldestTuples: r.over.shedOldest.Value(),
	}
	for i := 0; i < r.plan.NumInputs(); i++ {
		qs.Ins = append(qs.Ins, ckpt.InputSnap{
			FreeTo: rs.lastFreeTo[i],
			PrevTS: rs.lastPrevTS[i],
		})
	}
	return qs
}

// RestoreInfo summarises a successful Restore.
type RestoreInfo struct {
	// Epoch is the restored epoch number.
	Epoch uint64
	// Path is the checkpoint file the engine was rebuilt from.
	Path string
	// Skipped counts newer torn/corrupt epoch files fallen past (also
	// surfaced as saber.ckpt.corrupt).
	Skipped int
	// Queries is how many queries the snapshot restored.
	Queries int
	// Unmatched counts snapshot queries with no registered match that
	// catalog mode skipped (0 outside catalog mode, where an unmatched
	// query is an error instead).
	Unmatched int
}

// Restore rebuilds the engine's state from the newest valid checkpoint
// in dir. Call after every Register and before Start; the registered
// queries must match the checkpoint by name. On success the engine
// resumes at the epoch barrier: input rings are rebased to the saved
// cursors (Handle.InputCursor tells the feeder where to resume), the
// assembler holds the barrier's pending windows, the committed-output
// counters continue from the saved offsets, and ϕ plus the scheduler's
// learned rates carry over. Returns ckpt.ErrNoCheckpoint (wrapped) when
// dir holds no loadable epoch — treat as a cold start.
func (e *Engine) Restore(dir string) (*RestoreInfo, error) {
	if e.started.Load() {
		return nil, fmt.Errorf("engine: Restore after Start")
	}
	start := time.Now()
	snap, info, err := ckpt.LoadLatest(dir)
	if info != nil && info.Skipped > 0 {
		e.ckm.corrupt.Add(int64(info.Skipped))
	}
	if err != nil {
		return nil, err
	}
	unmatched := 0
	for _, qs := range snap.Queries {
		r, ok := e.byName[qs.Name]
		if !ok {
			// In catalog mode the replayed statement log governs the query
			// set, so a snapshot entry with no registered match (a crash
			// window around a DROP) is skipped, not refused.
			if e.statementSource() != nil {
				unmatched++
				continue
			}
			return nil, fmt.Errorf("engine: checkpoint query %q is not registered", qs.Name)
		}
		if err := r.restore(qs); err != nil {
			return nil, err
		}
	}
	if snap.Phi > 0 {
		e.SetTaskSize(int(snap.Phi))
	}
	e.ckptEpoch.Store(int64(snap.Epoch))
	e.ckm.lastEpoch.Set(int64(snap.Epoch))
	e.ckm.recoverNs.Observe(time.Since(start).Nanoseconds())
	return &RestoreInfo{
		Epoch:     snap.Epoch,
		Path:      info.Path,
		Skipped:   info.Skipped,
		Queries:   len(snap.Queries) - unmatched,
		Unmatched: unmatched,
	}, nil
}

// restore rebuilds one query at the checkpoint's barrier. Runs strictly
// before Start, so no locking is needed.
func (r *registered) restore(qs ckpt.QuerySnap) error {
	if len(qs.Ins) != r.plan.NumInputs() {
		return fmt.Errorf("engine: checkpoint query %q carries %d inputs, plan has %d",
			qs.Name, len(qs.Ins), r.plan.NumInputs())
	}
	if qs.Barrier < 0 {
		return fmt.Errorf("engine: checkpoint query %q has negative barrier %d", qs.Name, qs.Barrier)
	}
	r.taskSeq.Store(qs.Barrier)
	rs := r.result
	rs.next.Store(qs.Barrier)
	rs.drained.Store(qs.Barrier)
	for i := range qs.Ins {
		in := r.ins[i]
		fr := qs.Ins[i].FreeTo
		if fr < 0 || fr%int64(in.tupleSize) != 0 {
			return fmt.Errorf("engine: checkpoint query %q input %d cursor %d not aligned to tuple size %d",
				qs.Name, i, fr, in.tupleSize)
		}
		// Rebase the fresh ring so the restored engine keeps the stream's
		// absolute addressing: the first replayed byte lands at offset fr,
		// exactly where the crashed engine had it.
		in.ring.Rebase(fr)
		in.batchStart = fr
		in.firstIndex = fr / int64(in.tupleSize)
		in.prevTS = qs.Ins[i].PrevTS
		rs.lastFreeTo[i] = fr
		rs.lastPrevTS[i] = qs.Ins[i].PrevTS
		// The replayed prefix was admitted once pre-crash; seeding bytesIn
		// keeps the cumulative counters consistent across the restart. The
		// prefix was offered once too, so bytesOffered gets the same seed;
		// the admission-shed delta is added below.
		r.stats.bytesIn.Add(fr)
		r.over.bytesOffered.Add(fr)
	}
	// Re-seed the overload ledger. Shed telemetry carries over verbatim;
	// offered additionally absorbs the pre-crash admission-shed volume
	// (offered - admitted, in bytes) so offered == admitted + shed keeps
	// holding after the replayed suffix is re-offered and re-admitted.
	if d := qs.OfferedBytes - qs.InBytes; d > 0 {
		r.over.bytesOffered.Add(d)
		r.shedAdmitBytes.Add(d)
	}
	r.stats.tuplesShed.Add(qs.ShedTuples)
	r.over.shedAdmit.Add(qs.ShedAdmitTuples)
	r.over.shedOldest.Add(qs.ShedOldestTuples)
	rs.asm.Restore(qs.Pending)
	r.stats.bytesOut.Add(qs.CommittedBytes)
	r.stats.tuplesOut.Add(qs.CommittedTuples)
	r.stats.tasksCreated.Add(qs.Barrier)
	r.committed.Store(qs.CommittedBytes)
	r.restoredRates = [2]float64{qs.RateCPU, qs.RateGPU}
	return nil
}
