package harness

import (
	"sync"
	"testing"
	"time"

	"saber/internal/adapt"
	"saber/internal/engine"
	"saber/internal/overload"
	"saber/internal/workload"
)

// overloadShape is the workload every overload scenario shares: jittered
// identity processing with a deterministic service-time floor, so the
// pipeline's capacity has a computable upper bound and a paced feed can
// be set at a known multiple of it. The jitter on top only lowers true
// capacity, pushing a "2×" feed even further past saturation.
func overloadShape(seed int64) Config {
	return Config{
		Seed:     seed,
		Workload: WorkloadJitter,
		// The ring must dwarf the queue budget: overload protection is the
		// budget acting first, not ring backpressure (a ring no bigger than
		// the budget would throttle the feeder before the budget ever
		// trips and no shedding could be observed).
		Engine: engine.Config{CPUWorkers: 4, TaskSize: 1024, InputBufferSize: 1 << 18},
		// One whole window per ϕ-sized task: the oldest-first rung sheds at
		// task granularity, so aligning windows to tasks means a shed drops
		// whole windows. A straddling window would instead be stranded open
		// until the end-of-stream flush and emit its early fragments last,
		// which the order invariant would (correctly) reject.
		WindowSize: 32,
		MaxJitter:  time.Millisecond,
		MinProcess: 400 * time.Microsecond,
	}
}

// shapeCapacity is the shape's capacity upper bound in bytes/sec: every
// worker moves at most one ϕ-sized task per MinProcess.
func shapeCapacity(shape Config) float64 {
	return float64(shape.Engine.CPUWorkers*shape.Engine.TaskSize) / shape.MinProcess.Seconds()
}

// TestOverloadShedOldestAtTwiceCapacity is the sustained-overload chaos
// scenario: the feed is paced at 2× the measured capacity with a tight
// queue budget, so admission pressure is continuous and the
// oldest-window-first rung must actuate. Degradation has to be graceful
// — bounded shedding with real goodput — and exactly accounted: the
// shed-tolerant checker enforces out + shed == offered, order and
// per-tuple integrity on everything that survives.
func TestOverloadShedOldestAtTwiceCapacity(t *testing.T) {
	shape := overloadShape(Seed(9301))
	// Slow the service floor well past the bounded admission wait: budget
	// headroom then reappears on a millisecond scale while MaxWait is tens
	// of microseconds, so a blocked chunk deterministically outlasts the
	// wait and the policy must actuate (rather than racing the drain).
	shape.MinProcess = 2 * time.Millisecond
	capacity := shapeCapacity(shape)

	cfg := shape
	cfg.Tuples = scale(8000, 24000)
	cfg.Engine.Overload = &overload.Config{
		MaxQueueBytes: 16 << 10,
		Policy:        overload.ShedOldest,
		MaxWait:       50 * time.Microsecond,
	}
	cfg.PacedRate = workload.SteadyRate(2 * capacity)
	rep := runClean(t, cfg)

	if rep.TuplesShedOldest == 0 {
		t.Fatalf("2x-capacity feed never tripped oldest-first shedding; overload not exercised: %s", rep)
	}
	if rep.AdmitWaits == 0 {
		t.Fatalf("overload run never hit the bounded admission wait: %s", rep)
	}
	if rep.TuplesOut < rep.TuplesIn/8 {
		t.Fatalf("goodput collapsed under overload (%d of %d tuples): %s", rep.TuplesOut, rep.TuplesIn, rep)
	}
}

// TestOverloadShedWeightedAtTwiceCapacity drives the same sustained
// overload through the probabilistic weighted rung: chunks are dropped
// pre-admission by the seeded coin, so the shed shows up in the
// admission ledger (offered == admitted + shed at admission) rather
// than as window gaps.
func TestOverloadShedWeightedAtTwiceCapacity(t *testing.T) {
	shape := overloadShape(Seed(9302))
	// Slow the service floor well past the bounded admission wait: budget
	// headroom then reappears on a millisecond scale while MaxWait is tens
	// of microseconds, so a blocked chunk deterministically outlasts the
	// wait and the policy must actuate (rather than racing the drain).
	shape.MinProcess = 2 * time.Millisecond
	capacity := shapeCapacity(shape)

	cfg := shape
	cfg.Tuples = scale(8000, 24000)
	cfg.Engine.Overload = &overload.Config{
		MaxQueueBytes: 16 << 10,
		Policy:        overload.ShedWeighted,
		MaxWait:       50 * time.Microsecond,
		Seed:          Seed(9302),
	}
	cfg.PacedRate = workload.SteadyRate(2 * capacity)
	rep := runClean(t, cfg)

	if rep.TuplesShedAdmit == 0 {
		t.Fatalf("2x-capacity feed never tripped weighted admission shedding: %s", rep)
	}
	if rep.TuplesOut < rep.TuplesIn/8 {
		t.Fatalf("goodput collapsed under overload (%d of %d tuples): %s", rep.TuplesOut, rep.TuplesIn, rep)
	}
}

// TestOverloadMutationDetectsLeak is the harness self-test for the
// shed-tolerant checker: in a run that legitimately sheds, silently
// dropping one more output tuple (a "leak" the shed ledger knows nothing
// about) must still be flagged — otherwise shedding mode would be a
// blind spot where real conservation bugs hide behind the policy.
func TestOverloadMutationDetectsLeak(t *testing.T) {
	shape := overloadShape(Seed(9303))
	cfg := shape
	cfg.Tuples = scale(6000, 16000)
	cfg.Engine.Overload = &overload.Config{
		MaxQueueBytes: 8 << 10,
		Policy:        overload.ShedOldest,
		MaxWait:       50 * time.Microsecond,
	}
	var once sync.Once
	cfg.MutateOutput = func(chunk []byte) []byte {
		out := chunk
		once.Do(func() {
			// Drop the chunk's last tuple; the checker must notice the
			// ledger no longer balances.
			if tsz := StreamSchema.TupleSize(); len(chunk) >= tsz {
				out = chunk[:len(chunk)-tsz]
			}
		})
		return out
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if rep.Err() == nil {
		t.Fatal("dropped an output tuple behind the shed ledger's back and no invariant fired")
	}
}

// TestOverloadAdaptLastRungSheds proves shedding sits at the end of the
// adaptive ladder: ϕ is pinned at its floor and the SLO is unmeetable,
// so every trusted controller tick raises the last-rung overload signal
// — only then is the policy armed and allowed to cut tuples. The run
// must show both the signal (overload ticks) and the actuation (oldest
// shed) with the ledger still exact.
func TestOverloadAdaptLastRungSheds(t *testing.T) {
	shape := overloadShape(Seed(9304))
	cfg := shape
	cfg.Tuples = scale(8000, 24000)
	cfg.Engine.CPUWorkers = 2
	cfg.Engine.Adapt = &adapt.Config{
		MinPhi:   1024,
		MaxPhi:   1024,
		SLO:      time.Microsecond,
		Interval: 5 * time.Millisecond,
	}
	cfg.Engine.Overload = &overload.Config{
		MaxQueueBytes: 8 << 10,
		Policy:        overload.ShedOldest,
		MaxWait:       50 * time.Microsecond,
	}
	rep := runClean(t, cfg)

	if rep.AdaptOverloadTicks == 0 {
		t.Fatalf("unmeetable SLO at the phi floor never raised the last-rung signal: %s", rep)
	}
	if rep.TuplesShedOldest == 0 && rep.TuplesShedAdmit == 0 {
		t.Fatalf("last-rung signal raised but the shedding policy never actuated: %s", rep)
	}
}

// TestOverloadCreditsPaceIngest feeds over real TCP loopback with
// credit-based flow control armed: the server's advertised window must
// pace the client to the sink's rate (the client demonstrably blocks on
// grants), and because flow control holds data at the source instead of
// dropping it, the stream still arrives exactly once, byte for byte.
func TestOverloadCreditsPaceIngest(t *testing.T) {
	shape := overloadShape(Seed(9305))
	cfg := shape
	cfg.Tuples = scale(6000, 20000)
	cfg.Ingest = true
	cfg.SourceCredits = 64
	rep := runClean(t, cfg)

	if rep.CreditWaits == 0 {
		t.Fatalf("credit window 64 never made the feeder wait; flow control not exercised: %s", rep)
	}
	if rep.TuplesOut != rep.TuplesIn {
		t.Fatalf("flow control must be lossless: %d tuples out of %d in: %s", rep.TuplesOut, rep.TuplesIn, rep)
	}
}
