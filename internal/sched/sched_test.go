package sched

import (
	"math"
	"slices"
	"testing"

	"saber/internal/task"
)

func fig5Matrix() *Matrix {
	// Paper Fig. 5: q1: CPU 50, GPU 20; q2: CPU 5, GPU 15; q3: CPU 20, GPU 30.
	m := NewMatrix(3, 1, 0.2, 1, 1)
	m.rows[0] = [numProcs]float64{50, 20}
	m.rows[1] = [numProcs]float64{5, 15}
	m.rows[2] = [numProcs]float64{20, 30}
	for i := range m.seen {
		m.seen[i] = [numProcs]bool{true, true}
	}
	return m
}

func fig5Queue() *task.Queue {
	q := task.NewQueue()
	// Head first: v1 q2, v2 q2, v3 q3, v4 q3, v5 q1, v6 q2, v7 q1, v8 q2.
	for i, qi := range []int{1, 1, 2, 2, 0, 1, 0, 1} {
		q.Push(&task.Task{Query: qi, ID: int64(i + 1)})
	}
	return q
}

// TestFig5GPUWorker: a GPGPU worker takes the queue head v1 because the
// GPGPU is q2's preferred processor.
func TestFig5GPUWorker(t *testing.T) {
	h := NewHLS(3, fig5Matrix(), 100)
	got := h.Next(fig5Queue(), GPU)
	if got == nil || got.ID != 1 {
		t.Fatalf("GPU worker selected %+v, want v1", got)
	}
}

// TestFig5CPUWorkerLookahead: a CPU worker skips the GPGPU-preferred
// tasks until the accumulated GPGPU delay makes CPU execution finish
// earlier. Under the literal Alg. 1 condition (delay ≥ 1/C(q,CPU),
// checked before adding the current task's own service time) the first
// q3 task already qualifies: after skipping v1 and v2 the delay is
// 2/15 ≈ 0.133 ≥ 1/20. The prose walkthrough in the paper selects v4
// instead of v3; the pseudocode as printed selects v3 — we implement the
// pseudocode and pin its behaviour here.
func TestFig5CPUWorkerLookahead(t *testing.T) {
	h := NewHLS(3, fig5Matrix(), 100)
	got := h.Next(fig5Queue(), CPU)
	if got == nil || got.ID != 3 || got.Query != 2 {
		t.Fatalf("CPU worker selected %+v, want v3 (first q3 task)", got)
	}
}

// TestCPUWorkerSkipsWhenDelaySmall: with only GPGPU-preferred work and no
// accumulated delay beating CPU service time, the CPU worker declines.
func TestCPUWorkerSkipsWhenDelaySmall(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	m.rows[0] = [numProcs]float64{1, 1000} // GPU vastly preferred, CPU slow
	m.seen[0] = [numProcs]bool{true, true}
	h := NewHLS(1, m, 100)
	q := task.NewQueue()
	q.Push(&task.Task{Query: 0, ID: 1})
	if got := h.Next(q, CPU); got != nil {
		t.Fatalf("CPU worker stole a GPU task: %+v", got)
	}
	if q.Len() != 1 {
		t.Fatal("declined task was removed")
	}
	if got := h.Next(q, GPU); got == nil || got.ID != 1 {
		t.Fatalf("GPU worker did not take its task")
	}
}

// TestCPUWorkerTakesRetriedGPUTask: a task whose prior attempt failed
// bypasses the switch-threshold gate. After the queue closes, the GPU
// worker may already have exited when a CPU-side failure requeues the
// task, and a lone GPU-preferred retry has no streak and no accumulated
// delay — gating it (as for a fresh task, see
// TestCPUWorkerSkipsWhenDelaySmall) would wedge Drain forever.
func TestCPUWorkerTakesRetriedGPUTask(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	m.rows[0] = [numProcs]float64{1, 1000} // GPU vastly preferred, CPU slow
	m.seen[0] = [numProcs]bool{true, true}
	h := NewHLS(1, m, 100)
	q := task.NewQueue()
	q.Push(&task.Task{Query: 0, ID: 1, Attempts: 1})
	if got := h.Next(q, CPU); got == nil || got.ID != 1 {
		t.Fatalf("CPU worker declined a retried GPU-preferred task: %+v", got)
	}
}

// drive pushes n tasks of query 0 and hands each to the first of the two
// processors whose HLS scan accepts it, returning the schedule. observe,
// when set, runs after every selection (standing in for the completion
// the engine would feed back into the matrix).
func drive(t *testing.T, h *HLS, n int, first, second Processor, observe func(Processor)) []Processor {
	t.Helper()
	q := task.NewQueue()
	for i := 0; i < n; i++ {
		q.Push(&task.Task{Query: 0, ID: int64(i)})
	}
	var procs []Processor
	for q.Len() > 0 {
		p := first
		if h.Next(q, first) == nil {
			p = second
			if h.Next(q, second) == nil {
				t.Fatalf("both processors declined after %v", procs)
			}
		}
		procs = append(procs, p)
		if observe != nil {
			observe(p)
		}
	}
	return procs
}

// probes returns the schedule positions that ran on p.
func probes(procs []Processor, p Processor) []int {
	var at []int
	for i, got := range procs {
		if got == p {
			at = append(at, i)
		}
	}
	return at
}

// TestSwitchThresholdForcesExploration: at equal service times, after St
// runs on the preferred processor the task must go to the other one (and
// the streak resets) — Alg. 1's schedule, task for task.
func TestSwitchThresholdForcesExploration(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	m.SeedRates(0, 5, 5)
	h := NewHLS(1, m, 3)
	procs := drive(t, h, 8, CPU, GPU, nil)
	// CPU preferred: three on CPU, then the threshold forces one to GPU,
	// then the streak restarts.
	want := []Processor{CPU, CPU, CPU, GPU, CPU, CPU, CPU, GPU}
	if !slices.Equal(procs, want) {
		t.Fatalf("schedule = %v, want %v", procs, want)
	}
	if h.Flips() != 2 {
		t.Fatalf("Flips() = %d, want 2", h.Flips())
	}
}

// TestSwitchThresholdCountsProbeLengths: St counts probe-lengths. With
// the GPU 100× slower per task, the first probe still comes after St
// tasks — the GPU column is unobserved, its rate only the prior — and
// once the probe's observation lands, the next ones come every St×100.
func TestSwitchThresholdCountsProbeLengths(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	m.SeedRates(0, 100, 0) // GPU column left at the prior, unseen
	h := NewHLS(1, m, 3)
	procs := drive(t, h, 3+1+300+1+300+1, CPU, GPU, func(p Processor) {
		if p == GPU {
			m.Observe(0, GPU, 1) // one task per second: 100× the CPU's service time
		}
	})
	if got, want := probes(procs, GPU), []int{3, 304, 605}; !slices.Equal(got, want) {
		t.Fatalf("GPU probes at %v, want %v", got, want)
	}
}

// TestSwitchThresholdGPUPreferred: the CPU is the probed class when the
// GPU is faster, and the interval follows per-task service time
// (capacity/ρ), not class throughput: a 4-worker CPU class at 40 tasks/s
// serves one task in 0.1 s against the device's 0.01 s, a 10× ratio,
// although the throughput ratio is 2.5×.
func TestSwitchThresholdGPUPreferred(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 4, 1)
	m.SeedRates(0, 40, 100)
	h := NewHLS(1, m, 2)
	procs := drive(t, h, 2*(20+1), GPU, CPU, nil)
	if got, want := probes(procs, CPU), []int{20, 41}; !slices.Equal(got, want) {
		t.Fatalf("CPU probes at %v, want %v", got, want)
	}
}

// TestSwitchThresholdUnseenColumn: as long as the other column has no
// observation, its prior does not stretch the interval — however slow the
// prior makes it look, a probe comes every St tasks, so the first real
// measurement is never starved.
func TestSwitchThresholdUnseenColumn(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	m.SeedRates(0, 1000, 0)
	h := NewHLS(1, m, 3)
	if got, want := probes(drive(t, h, 12, CPU, GPU, nil), GPU), []int{3, 7, 11}; !slices.Equal(got, want) {
		t.Fatalf("GPU probes at %v, want %v", got, want)
	}
}

// TestSwitchThresholdNoDevice: a class without capacity (no device
// attached) never forces a switch either way. The CPU keeps taking its
// preferred tasks past St, and still declines a GPU-preferred task whose
// streak is zero (it waits for an observation instead).
func TestSwitchThresholdNoDevice(t *testing.T) {
	m := NewMatrix(1, 1000, 0.2, 1, 0)
	m.SeedRates(0, 1000, 100)
	h := NewHLS(1, m, 3)
	q := task.NewQueue()
	for i := 0; i < 10; i++ {
		q.Push(&task.Task{Query: 0, ID: int64(i)})
	}
	for q.Len() > 0 {
		if h.Next(q, CPU) == nil {
			t.Fatalf("CPU declined its preferred task with %d queued and no device", q.Len())
		}
	}

	m.SeedRates(0, 100, 1000) // GPU preferred, but there is no GPU
	q.Push(&task.Task{Query: 0, ID: 10})
	if got := h.Next(q, CPU); got != nil {
		t.Fatalf("no-device GPU column forced a switch to the CPU: %+v", got)
	}
}

// TestProbeAtClampsDegenerateRatios: an infinite rate on the preferred
// class caps the interval at maxProbeRatio probe-lengths, and a NaN ratio
// (two infinite rates) falls back to plain St.
func TestProbeAtClampsDegenerateRatios(t *testing.T) {
	m := NewMatrix(1, 1, 0.2, 1, 1)
	h := NewHLS(1, m, 3)
	inf := math.Inf(1)
	if got := h.probeAt([numProcs]float64{inf, 1}, CPU, true); got != 3*maxProbeRatio {
		t.Fatalf("infinite preferred rate: probe at %g, want %d", got, 3*maxProbeRatio)
	}
	if got := h.probeAt([numProcs]float64{inf, inf}, CPU, true); got != 3 {
		t.Fatalf("NaN ratio: probe at %g, want 3", got)
	}
}

func TestMatrixObserveEWMA(t *testing.T) {
	m := NewMatrix(1, 10, 0.5, 15, 4)
	if m.Rate(0, CPU) != 10 || m.Rate(0, GPU) != 10 {
		t.Fatal("uniform prior missing")
	}
	// First observation replaces the prior: 15 workers / 0.1 s = 150.
	m.Observe(0, CPU, 0.1)
	if got := m.Rate(0, CPU); math.Abs(got-150) > 1e-9 {
		t.Fatalf("rate after first obs = %g", got)
	}
	// Second observation: EWMA(α=0.5) of 150 and 15/0.05=300 → 225.
	m.Observe(0, CPU, 0.05)
	if got := m.Rate(0, CPU); math.Abs(got-225) > 1e-9 {
		t.Fatalf("rate after second obs = %g", got)
	}
	// GPU capacity differs.
	m.Observe(0, GPU, 0.1)
	if got := m.Rate(0, GPU); math.Abs(got-40) > 1e-9 {
		t.Fatalf("gpu rate = %g", got)
	}
	m.Observe(0, GPU, 0) // ignored
	if got := m.Rate(0, GPU); math.Abs(got-40) > 1e-9 {
		t.Fatalf("zero-duration observation changed rate: %g", got)
	}
	if m.Preferred(0) != CPU {
		t.Fatal("Preferred wrong")
	}
	if len(m.Snapshot()) != 1 {
		t.Fatal("Snapshot wrong")
	}
}

func TestAdaptationFlipsPreference(t *testing.T) {
	m := NewMatrix(1, 1, 0.5, 1, 1)
	for i := 0; i < 10; i++ {
		m.Observe(0, CPU, 0.01) // 100/s
		m.Observe(0, GPU, 0.1)  // 10/s
	}
	if m.Preferred(0) != CPU {
		t.Fatal("CPU should be preferred initially")
	}
	// Workload change: CPU collapses.
	for i := 0; i < 20; i++ {
		m.Observe(0, CPU, 1.0)
	}
	if m.Preferred(0) != GPU {
		t.Fatalf("preference did not adapt: cpu=%g gpu=%g", m.Rate(0, CPU), m.Rate(0, GPU))
	}
}

func TestFCFS(t *testing.T) {
	q := fig5Queue()
	p := FCFS{}
	if p.Name() != "fcfs" {
		t.Fatal("name")
	}
	first := p.Next(q, CPU)
	second := p.Next(q, GPU)
	if first.ID != 1 || second.ID != 2 {
		t.Fatalf("FCFS order broken: %d then %d", first.ID, second.ID)
	}
}

func TestStatic(t *testing.T) {
	s := Static{Assign: []Processor{CPU, GPU, CPU}}
	if s.Name() != "static" {
		t.Fatal("name")
	}
	q := fig5Queue() // head v1 is q2 (index 1) → GPU
	if got := s.Next(q, CPU); got == nil || got.Query == 1 {
		t.Fatalf("static CPU pick = %+v", got)
	}
	if got := s.Next(q, GPU); got == nil || got.Query != 1 {
		t.Fatalf("static GPU pick = %+v", got)
	}
	empty := task.NewQueue()
	if s.Next(empty, CPU) != nil {
		t.Fatal("pick from empty queue")
	}
}

func TestQueueBasics(t *testing.T) {
	q := task.NewQueue()
	if q.Select(func([]*task.Task) int { return 0 }) != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	q.Push(&task.Task{ID: 1})
	q.Push(&task.Task{ID: 2})
	if q.Len() != 2 {
		t.Fatal("Len")
	}
	if got := q.Select(func(items []*task.Task) int { return 1 }); got.ID != 2 {
		t.Fatal("Select by index")
	}
	if got := q.Select(func(items []*task.Task) int { return 99 }); got != nil {
		t.Fatal("out-of-range index not ignored")
	}
	if q.Closed() {
		t.Fatal("fresh queue closed")
	}
	q.Close()
	if !q.Closed() {
		t.Fatal("Close")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Close did not panic")
		}
	}()
	q.Push(&task.Task{ID: 3})
}
