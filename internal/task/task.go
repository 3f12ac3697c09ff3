// Package task defines SABER's query tasks and the single, system-wide
// task queue the scheduling stage operates on (paper §3, §4.1).
package task

import (
	"slices"
	"sync"
	"sync/atomic"

	"saber/internal/exec"
	"saber/internal/obs"
)

// Task is one schedulable unit: a query's compiled operator function
// bundled with one stream batch per input. Tasks of a query are totally
// ordered by ID; the result stage uses the order to reorder out-of-order
// completions.
type Task struct {
	// Query is the engine-assigned dense query index.
	Query int
	// ID is the per-query task sequence number, from 0.
	ID int64
	// In holds one batch per input stream.
	In [2]exec.Batch
	// FreeTo, per input, is the ring-buffer offset that can be released
	// once this task's results have been consumed (paper §4.1's free
	// pointer).
	FreeTo [2]int64
	// EndPrevTS, per input, is the timestamp of this task's last tuple —
	// the PrevTimestamp the *next* task's window.Context carries. The
	// result stage records it at the drain frontier so a checkpoint can
	// restore timestamp continuity for the first batch cut after recovery.
	EndPrevTS [2]int64
	// Created is a logical enqueue stamp used for latency accounting
	// (nanoseconds).
	Created int64
	// Attempts counts failed executions of this task. A task is owned by
	// exactly one worker at a time and hand-offs go through the queue
	// mutex, so plain fields suffice.
	Attempts int32
	// CPUOnly pins the task to the CPU class after a GPGPU-side failure,
	// so a retry cannot bounce back to the device that just failed it.
	CPUOnly bool
	// Trace accumulates the task's lifecycle stamps (nil when tracing is
	// off; every stamp method is nil-safe).
	Trace *obs.TaskTrace
}

// Signal parks goroutines until the next Fire. A waiter reads Gen before
// it checks the condition it waits for and passes the value to Park: a
// Fire after that read ends the park even if it came before Park, so no
// wake-up is lost.
type Signal struct {
	gen    atomic.Uint64
	mu     sync.Mutex
	parked []chan struct{}
}

// Gen returns the current generation.
func (s *Signal) Gen() uint64 { return s.gen.Load() }

// Park waits for the first Fire after generation gen.
func (s *Signal) Park(gen uint64) {
	s.mu.Lock()
	if s.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	s.parked = append(s.parked, ch)
	s.mu.Unlock()
	<-ch
}

// Fire starts a new generation and wakes the n longest-parked waiters,
// or all of them when n < 0.
func (s *Signal) Fire(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.Add(1)
	if n < 0 || n > len(s.parked) {
		n = len(s.parked)
	}
	for _, ch := range s.parked[:n] {
		close(ch)
	}
	s.parked = slices.Delete(s.parked, 0, n)
}

// Queue is the system-wide query task queue. Workers remove tasks through
// a scheduling policy that may inspect (look ahead into) the queue, so the
// queue exposes an indexed snapshot under its lock rather than just
// pop-head.
type Queue struct {
	mu     sync.Mutex
	items  []*Task
	closed bool
	idle   [2]Signal // per worker class: sched.CPU, sched.GPU
}

// NewQueue creates an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Push appends a task. Pushing to a closed queue panics (engine bug).
func (q *Queue) Push(t *Task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		panic("task: Push on closed queue")
	}
	q.items = append(q.items, t)
	q.fireLocked()
}

// PushOpen appends a task unless the queue has closed, reporting whether
// the task was accepted. The dispatcher uses it where an Insert can race
// Close (which closes the queue without the dispatch lock): the check and
// the append are atomic under the queue mutex, so a false return means
// the task will never be scheduled and the caller must account for it
// (shed gap) instead of abandoning it.
func (q *Queue) PushOpen(t *Task) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, t)
	q.fireLocked()
	return true
}

// Requeue re-inserts a previously dispatched task at the head of the
// queue after a failed execution attempt. Unlike Push it is permitted on
// a closed (draining) queue: the task was already accounted for by the
// dispatcher, and the drain barrier waits on its result, so it must
// remain schedulable. Head insertion keeps a retried task inside the
// scheduler's bounded lookahead (and thus the result stage's reordering
// window).
func (q *Queue) Requeue(t *Task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = slices.Insert(q.items, 0, t)
	q.fireLocked()
}

// Close marks the queue as draining: no more pushes will happen.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.fireLocked()
}

// Idle returns the signal idle workers of class c park on. Every mutation
// and Wake fire it, waking one parked worker of each class: workers of
// one class get the same answer from a policy, and one that takes a task
// fires again while tasks remain. On a closed queue every parked worker
// wakes to see its exit condition; an open empty queue fires nothing, as
// only a Push can matter then.
func (q *Queue) Idle(c int) *Signal { return &q.idle[c] }

// Wake fires the Idle signals for an outside change to a policy's inputs.
func (q *Queue) Wake() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.fireLocked()
}

func (q *Queue) fireLocked() {
	n := 1
	if q.closed {
		n = -1
	} else if len(q.items) == 0 {
		return
	}
	for i := range q.idle {
		q.idle[i].Fire(n)
	}
}

// Closed reports whether the queue is draining.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Select runs fn over the queued tasks under the queue lock. fn returns
// the index of the task to remove, or -1 to leave the queue unchanged.
// Select returns the removed task, or nil.
func (q *Queue) Select(fn func(items []*Task) int) *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := fn(q.items)
	if i < 0 || i >= len(q.items) {
		return nil
	}
	t := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	q.fireLocked()
	return t
}
