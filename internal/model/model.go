// Package model provides SABER's calibrated performance model.
//
// The paper evaluates on 16 Xeon cores plus an NVIDIA Quadro K5200 behind
// PCIe 3.0. This reproduction has neither, so executors compute real
// results and then *pad* each task's wall time to the duration this model
// predicts for the paper's hardware (DESIGN.md §2). Padding uses sleeping,
// so any number of simulated processors overlap on however few physical
// cores exist; the relative performance surface — which processor wins for
// which query, where the crossovers sit — follows the model, which is
// calibrated against the paper's measured throughputs.
//
// Nothing else in the engine knows about the model: HLS scheduling, the
// throughput matrix, dispatching and result handling all observe ordinary
// wall-clock durations.
package model

import (
	"time"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
)

// Params holds the calibrated constants. All per-unit costs are in
// nanoseconds at TimeScale == 1; Scale lets benchmarks trade fidelity for
// wall-clock time uniformly.
type Params struct {
	// TimeScale multiplies every modelled duration. 1.0 reproduces the
	// paper's magnitudes; smaller values shrink experiment runtime while
	// preserving every ratio.
	TimeScale float64

	// CPUBaseNs and CPUUnitNs model one CPU worker's per-tuple cost:
	// base + unit × complexity.
	CPUBaseNs float64
	CPUUnitNs float64

	// CPUFragNs models the CPU's per-window-fragment overhead (snapshot
	// and bookkeeping of the incremental computation).
	CPUFragNs float64

	// GPULaunchNs is the fixed kernel-launch + scheduling cost per task.
	GPULaunchNs float64

	// GPUBaseNs and GPUUnitNs model the GPGPU's per-tuple kernel cost:
	// base + unit × complexity, already divided by its parallelism.
	GPUBaseNs float64
	GPUUnitNs float64

	// GPUReduceNs is the GPGPU's cost per duplicated tuple visit in
	// windowed reductions: fragments are computed independently, so a
	// tuple in k overlapping windows is reduced k times (no incremental
	// computation on the GPGPU, §5.4). Calibrated against Fig. 11b's
	// GPGPU-only AGGavg at a 32 B slide (≈0.03 GB/s, 1024 visits per
	// tuple), which also leaves the sliding GROUP-BY of Fig. 15's W1
	// CPU-leaning.
	GPUReduceNs float64

	// PCIeNsPerByte models the DMA transfer cost in each direction
	// (≈0.45 ns/B ≈ 2.2 GB/s effective, matching the paper's observed
	// ceiling once both directions share the bus).
	PCIeNsPerByte float64

	// HostCopyNsPerByte models the managed-heap ↔ pinned-memory copies
	// (copyin/copyout stages).
	HostCopyNsPerByte float64

	// DispatchNsPerByte models the sequential dispatching stage; it caps
	// engine ingest (the paper's ~6 GB/s dispatcher bound).
	DispatchNsPerByte float64
}

// Default returns the paper-calibrated parameters (see DESIGN.md §2 for
// the derivation from Figures 8 and 10).
func Default() Params {
	return Params{
		TimeScale:         1.0,
		CPUBaseNs:         55,
		CPUUnitNs:         14,
		CPUFragNs:         140,
		GPULaunchNs:       30_000,
		GPUBaseNs:         2.0,
		GPUUnitNs:         0.2,
		GPUReduceNs:       1.0,
		PCIeNsPerByte:     0.45,
		HostCopyNsPerByte: 0.10,
		DispatchNsPerByte: 0.155,
	}
}

// Scaled returns a copy with TimeScale set.
func (p Params) Scaled(scale float64) Params {
	p.TimeScale = scale
	return p
}

func (p Params) dur(ns float64) time.Duration {
	return time.Duration(ns * p.TimeScale)
}

// QueryCost is the per-query complexity summary the model derives once at
// query registration.
type QueryCost struct {
	// Complexity counts operator work units applied per tuple: predicate
	// comparisons, projection expressions, aggregate updates.
	Complexity float64
	// WindowDup is the data-duplication factor of RStream operators on
	// the GPGPU: every tuple is processed once per window containing it
	// (size/slide), because GPGPU fragments are computed independently.
	// 1 for IStream operators and tumbling windows.
	WindowDup float64
	// FragsPerTuple is how many window fragments the CPU touches per
	// tuple (1/slide in tuples); drives the CPU's per-fragment overhead.
	FragsPerTuple float64
	// JoinWindowTuples is the opposing-window size for joins (per-tuple
	// comparisons against the other stream's window); 0 otherwise.
	JoinWindowTuples float64
}

// Analyze derives a QueryCost from a validated query. For time-based
// windows it assumes unit tuple density (one tuple per time unit), which
// holds for the synthetic workloads used in the paper's parameter sweeps.
func Analyze(q *query.Query) QueryCost {
	c := QueryCost{Complexity: 1, WindowDup: 1}

	if q.Where != nil {
		c.Complexity += float64(countCmps(q.Where))
	}
	// Projection arithmetic is far cheaper per node than predicate
	// evaluation (calibrated against Fig. 15's PROJ6* throughputs).
	for _, item := range q.Projection {
		c.Complexity += 0.1 * float64(countExprNodes(item.Expr))
	}
	for range q.Aggregates {
		c.Complexity += 2
	}
	if len(q.GroupBy) > 0 {
		c.Complexity += 3
	}

	w := q.Inputs[0].Window
	slideTuples := float64(1)
	if w.Kind != window.Unbounded && w.Slide > 0 {
		slideTuples = float64(w.Slide)
	}
	if q.IsAggregation() || q.Distinct {
		if w.Kind != window.Unbounded {
			c.WindowDup = float64(w.Size) / float64(w.Slide)
			c.FragsPerTuple = 1 / slideTuples
		}
	}
	if q.IsJoin() {
		if q.JoinPred != nil {
			c.Complexity += float64(countCmps(q.JoinPred))
		}
		if w.Kind != window.Unbounded {
			c.JoinWindowTuples = float64(w.Size)
			c.WindowDup = float64(w.Size) / float64(w.Slide)
		}
	}
	return c
}

func countCmps(p expr.Pred) int {
	switch v := p.(type) {
	case expr.Cmp:
		return 1
	case expr.And:
		n := 0
		for _, q := range v.Preds {
			n += countCmps(q)
		}
		return n
	case expr.Or:
		n := 0
		for _, q := range v.Preds {
			n += countCmps(q)
		}
		return n
	case expr.Not:
		return countCmps(v.P)
	}
	return 0
}

func countExprNodes(e expr.Expr) int {
	switch v := e.(type) {
	case expr.Arith:
		return 1 + countExprNodes(v.Left) + countExprNodes(v.Right)
	case expr.Neg:
		return 1 + countExprNodes(v.E)
	}
	return 1
}

// CPUTaskTime models one CPU worker executing a task of the given size.
// selectivity (0..1) scales the complexity actually applied per tuple for
// adaptive workloads (Fig. 16); pass 1 when unknown.
func (p Params) CPUTaskTime(c QueryCost, tuples int, selectivity float64) time.Duration {
	perTuple := p.CPUBaseNs + p.CPUUnitNs*c.Complexity*selectivity
	if c.JoinWindowTuples > 0 {
		perTuple += p.CPUUnitNs * c.JoinWindowTuples * 0.5
	}
	ns := float64(tuples) * (perTuple + p.CPUFragNs*c.FragsPerTuple)
	return p.dur(ns)
}

// GPUKernelTime models the execute stage for a task: launch plus per-tuple
// kernel cost, plus the per-visit reduction cost times the window overlap
// (the GPGPU does not compute incrementally across overlapping windows).
func (p Params) GPUKernelTime(c QueryCost, tuples int, selectivity float64) time.Duration {
	perTuple := p.GPUBaseNs + p.GPUUnitNs*c.Complexity*selectivity
	if c.WindowDup > 1 {
		perTuple += p.GPUReduceNs * c.WindowDup
	}
	if c.JoinWindowTuples > 0 {
		perTuple += p.GPUUnitNs * c.JoinWindowTuples * 8
	}
	return p.dur(p.GPULaunchNs + float64(tuples)*perTuple)
}

// PCIeTime models one DMA transfer of n bytes.
func (p Params) PCIeTime(n int) time.Duration {
	return p.dur(float64(n) * p.PCIeNsPerByte)
}

// HostCopyTime models one heap↔pinned copy of n bytes.
func (p Params) HostCopyTime(n int) time.Duration {
	return p.dur(float64(n) * p.HostCopyNsPerByte)
}

// DispatchTime models the sequential dispatcher handling n ingest bytes.
func (p Params) DispatchTime(n int) time.Duration {
	return p.dur(float64(n) * p.DispatchNsPerByte)
}

// Pad sleeps whatever remains of target beyond the time already spent
// since start. It returns the total elapsed time.
func Pad(start time.Time, target time.Duration) time.Duration {
	elapsed := time.Since(start)
	if remaining := target - elapsed; remaining > 0 {
		time.Sleep(remaining)
		return target
	}
	return elapsed
}
