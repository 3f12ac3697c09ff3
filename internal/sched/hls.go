package sched

import (
	"math"
	"sync"
	"sync/atomic"

	"saber/internal/task"
)

// HLS is the heterogeneous lookahead scheduling algorithm (paper Alg. 1).
//
// A worker that became idle on processor p scans the system-wide queue in
// order. For each task it determines the preferred processor from the
// throughput matrix. The task is selected when
//
//   - p is preferred and no forced switch is due for the query, or
//   - p is not preferred, but either a forced switch is due (the run
//     streak on the preferred processor reached the switch threshold), or
//     the work already queued ahead for the preferred processor delays
//     this task by more than executing it here would take.
//
// Otherwise the task is planned for the other processor: its estimated
// service time is added to that processor's accumulated delay and the
// scan moves on. The forced switch keeps both matrix columns receiving
// fresh observations.
//
// Deviation from Alg. 1 (DESIGN §2): St counts probe-lengths, not tasks;
// see probeAt. At equal per-task service times that is St tasks.
type HLS struct {
	C  *Matrix
	St int // switch threshold, in probe-lengths (see probeAt)
	// MaxLookahead bounds how deep into the queue the scan reaches
	// (0 = unbounded). The engine sets it below the result-buffer size so
	// out-of-order execution stays within the reordering window.
	MaxLookahead int
	// Breaker, when set, is the GPGPU circuit breaker. While it is not
	// closed, every task is routed as CPU-preferred (graceful
	// degradation via the same switch-threshold machinery); in the
	// half-open state a GPU worker's scan takes the first eligible task
	// as the recovery probe.
	Breaker *Breaker

	mu    sync.Mutex
	count [][numProcs]int

	// selected counts tasks handed to workers; flips counts forced
	// backend switches (streak reached the switch threshold). Telemetry
	// for the stress harness; see invariant.go.
	selected atomic.Int64
	flips    atomic.Int64
}

// NewHLS creates the scheduler for n queries with the given matrix and
// switch threshold.
func NewHLS(n int, c *Matrix, st int) *HLS {
	return &HLS{C: c, St: st, count: make([][numProcs]int, n)}
}

// Grow extends the per-query streak table to cover queries registered
// after Start. Must be called (with the matrix grown first) before any
// task of a new query index reaches the queue.
func (h *HLS) Grow(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.count) < n {
		h.count = append(h.count, [numProcs]int{})
	}
}

// Name implements Policy.
func (h *HLS) Name() string { return "hls" }

// Next implements Policy with Alg. 1. It returns nil when no queued task
// should run on p yet. The worker then parks until one of the inputs of
// this decision changes, and re-invokes Next — the algorithm's implicit
// re-entry. The wake events are:
//
//   - a queue change: Push, Requeue, Close, or a Select that removes a
//     task (streaks and the delay planned ahead move with it);
//   - a matrix observation or SetPhi (Matrix.Notify): the rates decide
//     the preferred processor and the delay estimates;
//   - a breaker transition (Breaker.Notify): while it is not closed every
//     task routes to the CPU class.
func (h *HLS) Next(q *task.Queue, p Processor) *task.Task {
	h.mu.Lock()
	defer h.mu.Unlock()
	brState := BreakerClosed
	if h.Breaker != nil {
		brState = h.Breaker.State()
	}
	return q.Select(func(items []*task.Task) int {
		if h.MaxLookahead > 0 && len(items) > h.MaxLookahead {
			items = items[:h.MaxLookahead]
		}
		if p == GPU && brState == BreakerHalfOpen {
			// Recovery probe: take the first task not pinned to the CPU,
			// regardless of preference, so the probe cannot starve behind
			// a matrix that currently prefers the CPU everywhere.
			for pos, v := range items {
				if !v.CPUOnly {
					h.count[v.Query][p]++
					h.selected.Add(1)
					return pos
				}
			}
			return -1
		}
		delay := 0.0
		for pos, v := range items {
			qi := v.Query
			r, pref, otherSeen := h.C.Rates(qi)
			if p == GPU && v.CPUOnly {
				// A failed-over task never returns to the device; plan it
				// for the CPU and keep scanning.
				delay += 1 / r[CPU]
				continue
			}
			due := float64(h.count[qi][pref]) >= h.probeAt(r, pref, otherSeen)
			// A pinned task (failed over to the CPU, or degraded there by an
			// open breaker) must not be gated by the switch-threshold streak:
			// the streak exists to keep the other matrix column fresh, and a
			// pinned task cannot provide a GPU observation. Gating it would
			// livelock — the GPU side can neither take the task nor trigger
			// the forced switch that resets the CPU streak.
			pinned := v.CPUOnly || (p == CPU && brState != BreakerClosed)
			if pinned {
				pref = CPU
			}

			// A retried task (a prior attempt failed) also bypasses the
			// gate, on whichever processor scans first: after the queue
			// closes, the preferred backend's worker may already have
			// exited — it saw an empty queue before the failure requeued
			// the task — and a lone GPU-preferred retry has no streak and
			// no accumulated delay, so gating it would wedge Drain.
			retry := v.Attempts > 0

			selected := false
			if p == pref {
				selected = pinned || retry || !due
			} else {
				selected = retry || due || delay >= 1/r[p]
			}
			if selected {
				if p != pref && due {
					h.count[qi][pref] = 0 // reset after forced switch
					h.flips.Add(1)
				}
				h.count[qi][p]++
				h.selected.Add(1)
				return pos
			}
			// Planned for the preferred processor: accumulate the work
			// queued ahead of it.
			delay += 1 / r[pref]
		}
		return -1
	})
}

// maxProbeRatio caps the ratio probeAt stretches St by, so even an
// infinite rate leaves the other column a probe now and then.
const maxProbeRatio = 1 << 16

// probeAt returns the streak on pref at which a forced switch is due: St
// probe-lengths, one being the other class's per-task service time
// (capacity/ρ) in tasks of pref, so a probe costs at most 1/St of the
// work pref did since the last one. It reads only the matrix, whose
// observations already wake parked workers.
func (h *HLS) probeAt(r [numProcs]float64, pref Processor, otherSeen bool) float64 {
	other := pref ^ 1
	switch {
	case h.C.capacity[pref] == 0 || h.C.capacity[other] == 0:
		return math.Inf(1) // a class without a device neither probes nor is probed
	case !otherSeen:
		return float64(h.St) // the uniform prior is no measurement
	}
	ratio := h.C.capacity[other] / r[other] * r[pref] / h.C.capacity[pref]
	if !(ratio > 1) { // also NaN
		ratio = 1
	}
	return float64(h.St) * min(ratio, maxProbeRatio)
}
