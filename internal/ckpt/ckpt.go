// Package ckpt implements SABER's epoch-based checkpointing: periodic,
// crash-consistent snapshots of engine state cut at task-sequence
// barriers, persisted as CRC32-framed, fsync'd, atomically-renamed files.
//
// The durability unit is the epoch. The engine's result stage already
// merges task results strictly in task-ID order, so its drain frontier B
// is a natural barrier: when the coordinator snapshots under the drain
// lock, the committed output bytes, the assembler's still-open window
// partials, the ring release cursors and the dispatch timestamps all
// describe exactly tasks [0, B) — no quiescing, no in-flight task state
// to capture. Recovery rebuilds the engine at that barrier and replays
// the input from the released-cursor position; the checkpointed
// committed-output offset tells downstream exactly where the pre-crash
// prefix ends, so replayed output deduplicates to exactly-once delivery.
//
// On disk an epoch is one self-contained file, epoch-<n>.ckpt, written
// to a temp file, fsync'd, renamed into place, and followed by a
// directory fsync — a torn write can only ever produce a file that fails
// its length or CRC check, never a half-applied state. The store keeps
// the last K epochs; recovery scans the directory newest-to-oldest and
// falls back past any torn or corrupt file.
package ckpt

import "saber/internal/exec"

// Snapshot is one epoch's full engine state.
type Snapshot struct {
	// Epoch numbers snapshots monotonically, across restarts.
	Epoch uint64
	// Phi is the engine's task size at the barrier (adaptive sizing
	// carries over, so recovery resumes with the tuned ϕ).
	Phi int64
	// Queries holds one entry per registered query, keyed by name.
	Queries []QuerySnap
	// Statements is the catalog's DDL statement log at the barrier (codec
	// v3; empty when restored from an older file or an engine without a
	// catalog). Recovery replays it through a fresh catalog so the
	// registered sources, streams and sinks are restored exactly, then
	// matches Queries by name for their stream state.
	Statements []string
}

// QuerySnap is one query's state at the epoch barrier.
type QuerySnap struct {
	// Name matches the query's registered name; recovery refuses a
	// checkpoint whose queries don't match the rebuilt engine.
	Name string
	// Barrier is the task-sequence frontier: tasks [0, Barrier) are fully
	// merged into this snapshot, tasks >= Barrier are not reflected at
	// all and will be re-cut from replayed input.
	Barrier int64
	// CommittedBytes/CommittedTuples are the output stream position at
	// the barrier — the exactly-once cutoff for downstream consumers.
	CommittedBytes  int64
	CommittedTuples int64
	// RateCPU/RateGPU carry the scheduler's learned throughput row so a
	// restored engine does not re-learn the CPU/GPU crossover from the
	// uniform prior.
	RateCPU, RateGPU float64
	// Overload-protection ledger at the barrier (codec v2; zero when
	// restored from a v1 file). OfferedBytes/InBytes are the offered and
	// admitted byte volumes — their difference is the admission-shed
	// volume in bytes, which recovery re-seeds so the offered == admitted
	// + shed identity survives a restart. The tuple counters carry the
	// shed telemetry itself.
	OfferedBytes     int64
	InBytes          int64
	ShedTuples       int64
	ShedAdmitTuples  int64
	ShedOldestTuples int64
	// Ins holds per-input stream cursors.
	Ins []InputSnap
	// Pending holds the assembler's still-open window partials at the
	// barrier (windows that span the barrier).
	Pending []exec.WindowPartial
}

// InputSnap is one input stream's position at the epoch barrier.
type InputSnap struct {
	// FreeTo is the absolute ring byte offset released by the last task
	// before the barrier: everything below it is fully reflected in the
	// snapshot, everything at or above it must be replayed. FreeTo is
	// always tuple-aligned, so FreeTo / tupleSize is the replay cursor in
	// tuples — the position handed to ingest resume.
	FreeTo int64
	// PrevTS is the timestamp of the last tuple consumed before the
	// barrier (window.NoPrev when none): the window.Context continuity
	// for the first batch cut after recovery.
	PrevTS int64
}
