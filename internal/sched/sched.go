// Package sched implements SABER's scheduling stage (paper §4.2): the
// query task throughput matrix and the heterogeneous (hybrid) lookahead
// scheduling algorithm, HLS (Alg. 1), plus the FCFS and Static baseline
// policies used in the paper's Fig. 15 comparison.
package sched

import (
	"sync"
	"sync/atomic"

	"saber/internal/task"
)

// Processor identifies a heterogeneous processor class: all CPU cores
// together count as one class; the GPGPU is the other.
type Processor uint8

// Processor classes.
const (
	CPU Processor = iota
	GPU
	numProcs
)

// String names the processor.
func (p Processor) String() string {
	if p == CPU {
		return "cpu"
	}
	return "gpu"
}

// Matrix is the query task throughput matrix C: for every query and
// processor, the observed rate of query tasks per second. It is updated
// continuously from task completions with an exponentially weighted
// moving average, so scheduling adapts to workload changes without an
// offline performance model.
//
// With adaptive task sizing the matrix is additionally ϕ-aware: sized
// observations (ObserveSized) feed a per-(query, processor) linear
// service-time model service(ϕ) ≈ a + b·ϕ, and Rate evaluates that
// model at the engine's current ϕ (SetPhi) instead of replaying the
// rate observed at whatever size history happened to run. The GPU's
// large fixed a (launch + DMA staging) against the CPU's small one is
// exactly what moves the CPU/GPU crossover as ϕ changes. Entries whose
// fit is not yet trustworthy fall back to the legacy EWMA row, so the
// matrix degrades gracefully to the paper's §4.2 behavior.
type Matrix struct {
	// phi is the engine's current task size in bytes; 0 means fixed-ϕ
	// operation (legacy rows only). Atomic because the adapt control
	// loop stores it while workers read rates.
	phi atomic.Int64

	mu       sync.RWMutex
	alpha    float64
	initRate float64
	rows     [][numProcs]float64
	seen     [][numProcs]bool
	fits     [][numProcs]fit
	// capacity converts one completion's service time into a class
	// throughput: the CPU class completes tasks on every core in
	// parallel, the GPGPU across its pipeline depth.
	capacity [numProcs]float64

	// Notify, when set, is called after every observation and SetPhi:
	// both can change which processor a policy prefers, so the engine
	// wakes its parked workers with it. Set before concurrent use.
	Notify func()
}

// fit is the EWMA-moment linear regression of service time on task
// bytes for one (query, processor) entry: it tracks the running means
// of x, y, x² and x·y and solves service(x) ≈ a + b·x on demand. EWMA
// moments (rather than a plain least squares over all history) keep the
// fit tracking workload drift with the same time constant as the rows.
type fit struct {
	n                int64
	mx, my, mxx, mxy float64
}

// fitMinObs is the fewest sized observations before a fit is trusted.
const fitMinObs = 8

func (f *fit) observe(alpha, x, y float64) {
	f.n++
	if f.n == 1 {
		f.mx, f.my, f.mxx, f.mxy = x, y, x*x, x*y
		return
	}
	f.mx = alpha*x + (1-alpha)*f.mx
	f.my = alpha*y + (1-alpha)*f.my
	f.mxx = alpha*x*x + (1-alpha)*f.mxx
	f.mxy = alpha*x*y + (1-alpha)*f.mxy
}

// serviceAt predicts the service seconds for a task of x bytes, or
// ok=false when the fit is untrustworthy: too few observations, or the
// observed sizes lack the spread (≥5% of their mean) needed to separate
// the intercept from the slope.
func (f *fit) serviceAt(x float64) (float64, bool) {
	if f.n < fitMinObs {
		return 0, false
	}
	varx := f.mxx - f.mx*f.mx
	if spread := 0.05 * f.mx; varx <= spread*spread {
		return 0, false
	}
	b := (f.mxy - f.mx*f.my) / varx
	if b < 0 {
		b = 0 // service time cannot shrink with batch size
	}
	a := f.my - b*f.mx
	if a < 0 {
		a = 0
	}
	sec := a + b*x
	if sec <= 0 {
		return 0, false
	}
	return sec, true
}

// NewMatrix creates a matrix for n queries, initialised under the uniform
// assumption (paper §4.2) with the given rate for every entry.
func NewMatrix(n int, initialRate, alpha float64, cpuCapacity, gpuCapacity float64) *Matrix {
	m := &Matrix{
		alpha:    alpha,
		initRate: initialRate,
		rows:     make([][numProcs]float64, n),
		seen:     make([][numProcs]bool, n),
		fits:     make([][numProcs]fit, n),
		capacity: [numProcs]float64{cpuCapacity, gpuCapacity},
	}
	for i := range m.rows {
		m.rows[i] = [numProcs]float64{initialRate, initialRate}
	}
	return m
}

// Grow extends the matrix to cover queries registered after Start (the
// live-catalog path): rows for query indices up to n-1 are appended under
// the uniform prior. Growing never disturbs existing rows, and shrinking
// is not supported — a deregistered query keeps its row as a tombstone so
// indices stay dense.
func (m *Matrix) Grow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.rows) < n {
		m.rows = append(m.rows, [numProcs]float64{m.initRate, m.initRate})
		m.seen = append(m.seen, [numProcs]bool{})
		m.fits = append(m.fits, [numProcs]fit{})
	}
}

// SetPhi publishes the engine's current task size so Rate evaluates the
// service-time fits at the ϕ tasks will actually have — not the sizes
// past observations happened to carry. 0 disables ϕ-aware rates.
func (m *Matrix) SetPhi(phi int) {
	m.phi.Store(int64(phi))
	m.notify()
}

func (m *Matrix) notify() {
	if m.Notify != nil {
		m.Notify()
	}
}

// Observe records a completed task of query q on processor p that took
// serviceSeconds of wall time, with no size attached (fixed-ϕ callers).
func (m *Matrix) Observe(q int, p Processor, serviceSeconds float64) {
	m.ObserveSized(q, p, 0, serviceSeconds)
}

// ObserveSized records a completed task of query q on processor p that
// carried bytes of input and took serviceSeconds of wall time. The
// legacy EWMA row always updates; the linear fit additionally updates
// when the size is known.
func (m *Matrix) ObserveSized(q int, p Processor, bytes int64, serviceSeconds float64) {
	if serviceSeconds <= 0 {
		return
	}
	rate := m.capacity[p] / serviceSeconds
	m.mu.Lock()
	if bytes > 0 {
		m.fits[q][p].observe(m.alpha, float64(bytes), serviceSeconds)
	}
	if !m.seen[q][p] {
		// First real observation replaces the uniform prior outright.
		m.rows[q][p] = rate
		m.seen[q][p] = true
	} else {
		m.rows[q][p] = m.alpha*rate + (1-m.alpha)*m.rows[q][p]
	}
	m.mu.Unlock()
	m.notify()
}

// SeedRates primes query q's row with rates carried over from a
// checkpoint, marking them seen so the uniform prior does not linger: the
// restored engine resumes scheduling with the crashed process's learned
// CPU/GPU throughputs instead of re-learning from scratch. Non-positive
// rates leave the corresponding entry at the prior.
func (m *Matrix) SeedRates(q int, cpu, gpu float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q < 0 || q >= len(m.rows) {
		return
	}
	if cpu > 0 {
		m.rows[q][CPU] = cpu
		m.seen[q][CPU] = true
	}
	if gpu > 0 {
		m.rows[q][GPU] = gpu
		m.seen[q][GPU] = true
	}
}

// Rate returns ρ(q, p), evaluated at the current ϕ when a trustworthy
// service-time fit exists and falling back to the legacy EWMA row
// otherwise. Because the fit is evaluated live on every call, a SetPhi
// immediately re-rates every queued decision — there are no per-ϕ rows
// to go stale.
func (m *Matrix) Rate(q int, p Processor) float64 {
	phi := float64(m.phi.Load())
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rate(q, p, phi)
}

// rate is Rate with m.mu already held (read) and ϕ pre-loaded.
func (m *Matrix) rate(q int, p Processor, phi float64) float64 {
	if phi > 0 {
		if sec, ok := m.fits[q][p].serviceAt(phi); ok {
			return m.capacity[p] / sec
		}
	}
	return m.rows[q][p]
}

// Rates reads query q's row once: both rates at the current ϕ, the
// preferred processor (ties go to the CPU), and whether the other
// processor's column has been observed. HLS derives a task's delay and
// probe interval from this single read.
func (m *Matrix) Rates(q int) (r [numProcs]float64, pref Processor, otherSeen bool) {
	phi := float64(m.phi.Load())
	m.mu.RLock()
	defer m.mu.RUnlock()
	r = [numProcs]float64{m.rate(q, CPU, phi), m.rate(q, GPU, phi)}
	if r[GPU] > r[CPU] {
		pref = GPU
	}
	return r, pref, m.seen[q][pref^1]
}

// Preferred returns the processor with the highest throughput for query
// q at the current ϕ.
func (m *Matrix) Preferred(q int) Processor {
	_, pref, _ := m.Rates(q)
	return pref
}

// Snapshot returns a copy of the matrix rows (for logging and tests).
func (m *Matrix) Snapshot() [][numProcs]float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([][numProcs]float64, len(m.rows))
	copy(out, m.rows)
	return out
}

// Policy selects the next task a worker on processor p should execute.
// Implementations must be safe for concurrent use.
type Policy interface {
	// Next removes and returns the chosen task, or nil if the policy
	// declines every queued task for this processor right now.
	Next(q *task.Queue, p Processor) *task.Task
	// Name identifies the policy in logs and benchmarks.
	Name() string
}

// FCFS takes the queue head regardless of processor: the paper's
// first-come-first-served baseline. Tasks pinned to the CPU after a
// GPGPU failure are skipped by GPU workers.
type FCFS struct{}

// Next implements Policy.
func (FCFS) Next(q *task.Queue, p Processor) *task.Task {
	return q.Select(func(items []*task.Task) int {
		for i, t := range items {
			if p == GPU && t.CPUOnly {
				continue
			}
			return i
		}
		return -1
	})
}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Greedy always takes the first task whose preferred processor matches
// the worker — no lookahead, no switch threshold. It is the ablation
// baseline for HLS's delay estimation (BenchmarkAblationLookahead): a
// worker on the non-preferred processor idles even when it could finish
// queued work earlier.
type Greedy struct {
	C *Matrix
}

// Next implements Policy.
func (g Greedy) Next(q *task.Queue, p Processor) *task.Task {
	return q.Select(func(items []*task.Task) int {
		for i, t := range items {
			if p == GPU && t.CPUOnly {
				continue
			}
			if t.CPUOnly || g.C.Preferred(t.Query) == p {
				return i
			}
		}
		return -1
	})
}

// Name implements Policy.
func (g Greedy) Name() string { return "greedy" }

// Static executes each query's tasks only on its statically assigned
// processor (the paper's infeasible-in-practice baseline).
type Static struct {
	// Assign maps query index to processor.
	Assign []Processor
}

// Next implements Policy.
func (s Static) Next(q *task.Queue, p Processor) *task.Task {
	return q.Select(func(items []*task.Task) int {
		for i, t := range items {
			if p == GPU && t.CPUOnly {
				continue
			}
			if (t.CPUOnly && p == CPU) || s.Assign[t.Query] == p {
				return i
			}
		}
		return -1
	})
}

// Name implements Policy.
func (s Static) Name() string { return "static" }
