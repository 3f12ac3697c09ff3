package engine

import (
	"time"

	"saber/internal/obs"
	"saber/internal/schema"
)

// Handle is the application-facing side of a registered query: it ingests
// stream data and exposes the ordered output stream and statistics.
type Handle struct {
	r *registered
}

// Insert appends whole serialised tuples to the query's (single) input
// stream. It blocks when the input buffer is full or ResultSlots tasks
// are cut but not yet drained (backpressure), and paces itself to the
// modelled dispatcher rate.
func (h *Handle) Insert(data []byte) { h.r.insert(0, data) }

// InsertInto appends tuples to input side (0 or 1) of a join query.
func (h *Handle) InsertInto(side int, data []byte) { h.r.insert(side, data) }

// TryInsert is the non-blocking admission path: the whole payload is
// admitted iff it fits the input ring and the overload queue budget
// right now, and the result window has a free slot for every task it
// completes. On false, nothing was consumed and the caller decides —
// retry, redirect, fall back to Insert, or drop with its own accounting.
// Payloads larger than the ring, or completing more than ResultSlots
// tasks, can never succeed.
func (h *Handle) TryInsert(data []byte) bool { return h.r.tryInsert(0, data) }

// TryInsertInto is TryInsert for input side (0 or 1) of a join query.
func (h *Handle) TryInsertInto(side int, data []byte) bool { return h.r.tryInsert(side, data) }

// OnResult installs fn as the output sink. fn receives ordered chunks of
// serialised output tuples from whichever worker thread completes the
// assembly; it must be fast and must not retain the slice.
func (h *Handle) OnResult(fn func(rows []byte)) { h.r.result.setSink(fn) }

// OutputSchema returns the query's result schema.
func (h *Handle) OutputSchema() *schema.Schema { return h.r.OutputSchema() }

// Name returns the query name.
func (h *Handle) Name() string { return h.r.plan.Q.Name }

// RecentFailures returns the most recent task-execution errors recorded
// for this query (at most a handful are retained), newest last.
func (h *Handle) RecentFailures() []error { return h.r.recentFailures() }

// Committed returns the output byte offset covered by the newest durable
// checkpoint: a downstream consumer that keeps only output up to this
// offset, and resumes from it after a crash and Restore, observes every
// result exactly once. 0 until the first epoch persists.
func (h *Handle) Committed() int64 { return h.r.committed.Load() }

// InputCursor returns the absolute tuple index of the first byte not yet
// dispatched on input side — immediately after Restore, the position the
// feeder (or ingest resume) must replay the stream from. It reads the
// dispatch position under the ingest lock, so it is exact between
// Restore and the first Insert, and a live lower bound afterwards.
func (h *Handle) InputCursor(side int) int64 {
	h.r.insMu.Lock()
	defer h.r.insMu.Unlock()
	in := h.r.ins[side]
	return in.batchStart / int64(in.tupleSize)
}

// statsCounters are the per-query hot-path counters, registered in the
// engine's obs registry under saber.engine.q<i>.* (see metrics.go).
type statsCounters struct {
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	tuplesOut    *obs.Counter
	tasksCreated *obs.Counter
	tasksCPU     *obs.Counter
	tasksGPU     *obs.Counter
	latencyNs    *obs.Counter
	latencyN     *obs.Counter

	// Fault-tolerance counters.
	tasksFailed      *obs.Counter // failed execution attempts (all causes)
	tasksRetried     *obs.Counter // failed attempts that were requeued
	tasksQuarantined *obs.Counter // tasks given up on after MaxTaskRetries
	tuplesShed       *obs.Counter // input tuples covered by gap entries (quarantine + policy)
	gpuFailovers     *obs.Counter // GPU-failed tasks pinned to the CPU class
	gpuTimeouts      *obs.Counter // device hangs detected by GPUTaskTimeout
	windowWaits      *obs.Counter // cuts that parked until the result window had room
}

// overloadCounters are the per-query overload-protection counters,
// registered under saber.overload.q<i>.* (see metrics.go). Together they
// close the admission ledger: every tuple Insert took responsibility for
// (bytes.offered) is either admitted (saber.engine counters) or counted
// in exactly one shed bucket.
type overloadCounters struct {
	bytesOffered *obs.Counter // bytes Insert accepted responsibility for
	shedAdmit    *obs.Counter // tuples dropped before admission (weighted policy, quiesce abort)
	shedOldest   *obs.Counter // admitted tuples of queued tasks ShedOldest delivered as gaps (also in tuples.shed)
	admitWaits   *obs.Counter // Insert calls that hit the bounded backpressure wait
	admitRejects *obs.Counter // non-blocking TryInsert rejections
}

// Stats is a point-in-time snapshot of one query's counters.
type Stats struct {
	BytesIn      int64
	BytesOut     int64
	TuplesOut    int64
	TasksCreated int64
	TasksCPU     int64
	TasksGPU     int64
	// AvgLatency is the mean task-creation→result-emission latency.
	AvgLatency time.Duration

	// TasksFailed counts failed execution attempts (several per task when
	// it is retried); TasksRetried the attempts requeued for another go;
	// TasksQuarantined the tasks abandoned after MaxTaskRetries, with
	// TuplesShed the input tuples their gap entries cover.
	TasksFailed      int64
	TasksRetried     int64
	TasksQuarantined int64
	TuplesShed       int64
	// GPUFailovers counts GPU-failed tasks pinned over to the CPU class;
	// GPUTimeouts the device hangs detected by GPUTaskTimeout.
	GPUFailovers int64
	GPUTimeouts  int64
	// Overload-protection accounting. BytesOffered is every byte Insert
	// accepted responsibility for; TuplesShedAdmit the tuples dropped
	// before admission (ShedWeighted or a quiesce-aborted Insert);
	// TuplesShedOldest the admitted tuples of the queued tasks the
	// ShedOldest policy delivered unrun as gaps (a subset of TuplesShed). AdmitWaits counts Inserts that
	// hit the bounded backpressure wait, AdmitRejects the TryInsert
	// refusals. offered == in + shed_admit and in == out + shed hold at
	// quiesce (in tuples).
	BytesOffered     int64
	TuplesShedAdmit  int64
	TuplesShedOldest int64
	AdmitWaits       int64
	AdmitRejects     int64
	// DuplicateResults counts deliveries the result stage discarded to
	// keep assembly exactly-once (late results racing their CPU retry).
	DuplicateResults int64
}

// GPUShare is the fraction of executed tasks that ran on the GPGPU.
func (s Stats) GPUShare() float64 {
	total := s.TasksCPU + s.TasksGPU
	if total == 0 {
		return 0
	}
	return float64(s.TasksGPU) / float64(total)
}

// Stats snapshots the query's counters.
func (h *Handle) Stats() Stats {
	c := &h.r.stats
	s := Stats{
		BytesIn:          c.bytesIn.Value(),
		BytesOut:         c.bytesOut.Value(),
		TuplesOut:        c.tuplesOut.Value(),
		TasksCreated:     c.tasksCreated.Value(),
		TasksCPU:         c.tasksCPU.Value(),
		TasksGPU:         c.tasksGPU.Value(),
		TasksFailed:      c.tasksFailed.Value(),
		TasksRetried:     c.tasksRetried.Value(),
		TasksQuarantined: c.tasksQuarantined.Value(),
		TuplesShed:       c.tuplesShed.Value(),
		GPUFailovers:     c.gpuFailovers.Value(),
		GPUTimeouts:      c.gpuTimeouts.Value(),
		DuplicateResults: h.r.result.duplicates.Value(),

		BytesOffered:     h.r.over.bytesOffered.Value(),
		TuplesShedAdmit:  h.r.over.shedAdmit.Value(),
		TuplesShedOldest: h.r.over.shedOldest.Value(),
		AdmitWaits:       h.r.over.admitWaits.Value(),
		AdmitRejects:     h.r.over.admitRejects.Value(),
	}
	if n := c.latencyN.Value(); n > 0 {
		s.AvgLatency = time.Duration(c.latencyNs.Value() / n)
	}
	return s
}
