package harness

import (
	"math"
	"testing"
	"time"

	"saber/internal/adapt"
	"saber/internal/engine"
	"saber/internal/fault"
	"saber/internal/workload"
)

// TestChaosScenarios runs the seeded chaos suite: under injected GPU
// stage faults, device hangs, CPU plan errors and ingest disconnects,
// every invariant must hold — per-tuple checksums, exactly-once sequence
// coverage, ordering, conservation, clean quiesce — with zero tuples
// lost, duplicated or quarantined, and each scenario must prove its
// targeted fault path actually fired.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range ChaosScenarios(Seed(7001)) {
		t.Run(sc.Name, func(t *testing.T) {
			cfg := sc.Cfg
			if testing.Short() {
				cfg.Tuples /= 4
			}
			rep := runClean(t, cfg)
			if rep.FaultsInjected == 0 {
				t.Fatal("chaos scenario injected zero faults; it proved nothing")
			}
			if rep.TasksQuarantined != 0 || rep.TuplesShed != 0 {
				t.Fatalf("unexpected quarantine: %s", rep)
			}
			if rep.TuplesOut != rep.TuplesIn && sc.Cfg.Workload != WorkloadAgg {
				t.Fatalf("conservation under chaos: %d tuples out of %d in", rep.TuplesOut, rep.TuplesIn)
			}
			if err := sc.Check(rep); err != nil {
				t.Fatalf("%v: %s", err, rep)
			}
		})
	}
}

// TestChaosBreakerOpensAndRecovers forces a burst of consecutive GPU
// failures: the circuit breaker must open (shedding all work to the CPU
// class), probe the device after the cooldown, and close again once the
// fault burst is exhausted — with the stream's invariants intact and the
// device demonstrably back in service.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	inj := fault.New(Seed(7100))
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 1, Limit: 12})
	// Not scaled down under -short: the stream must outlast the 12-failure
	// burst by enough tasks for the half-open probe to find work, succeed,
	// and re-close the breaker before the queue drains.
	rep := runClean(t, Config{
		Seed:     Seed(7100),
		Workload: WorkloadJitter,
		Tuples:   30000,
		Engine: engine.Config{
			CPUWorkers:       4,
			TaskSize:         1024,
			SwitchThreshold:  3,
			MaxTaskRetries:   6,
			BreakerThreshold: 4,
			BreakerCooldown:  2 * time.Millisecond,
		},
		GPU:       true,
		GPURate:   math.Inf(1), // device traffic on purpose, not from HLS probes
		MaxJitter: time.Millisecond,
		Chaos:     inj,
	})
	if rep.BreakerOpens == 0 {
		t.Fatalf("12 consecutive GPU failures never opened the breaker: %s", rep)
	}
	if rep.BreakerCloses == 0 || rep.BreakerState != "closed" {
		t.Fatalf("breaker never recovered (state=%s closes=%d): %s", rep.BreakerState, rep.BreakerCloses, rep)
	}
	if rep.TasksGPU == 0 {
		t.Fatalf("device never returned to service after recovery: %s", rep)
	}
	if rep.TasksQuarantined != 0 || rep.TuplesOut != rep.TuplesIn {
		t.Fatalf("chaos burst lost work: %s", rep)
	}
}

// TestChaosBurstAdapt is the burst-adapt scenario: a paced bursty feed
// (square-edged load steps, the hardest case for a ϕ controller) drives
// the engine while the adaptive task-sizing loop resizes ϕ live AND
// injected GPU faults push tasks through the GPU→CPU failover path. The
// controller, the breaker-era failover machinery and the exactly-once
// result stage all interact; every invariant must still hold, the
// controller must demonstrably act, and no work may be lost.
func TestChaosBurstAdapt(t *testing.T) {
	inj := fault.New(Seed(7300))
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 0.1, Limit: 150})

	rep := runClean(t, Config{
		Seed:     Seed(7300),
		Workload: WorkloadJitter,
		Tuples:   scale(12000, 40000),
		Engine: engine.Config{
			CPUWorkers:      4,
			TaskSize:        4096, // start at MaxPhi: the tight SLO must pull ϕ down
			SwitchThreshold: 3,
			MaxTaskRetries:  6,
			Adapt: &adapt.Config{
				MinPhi:   256,
				MaxPhi:   4096,
				SLO:      2 * time.Millisecond,
				Interval: 10 * time.Millisecond,
			},
		},
		GPU:       true,
		MaxJitter: time.Millisecond,
		Chaos:     inj,
		// ~1.3 MB/s average with 6× bursts: enough pressure that the
		// jittered workers queue up during each burst.
		PacedRate: workload.BurstRate(0.6e6, 3.6e6, 250*time.Millisecond, 80*time.Millisecond),
		FeedTick:  time.Millisecond,
		FeedFor:   2 * time.Second,
	})

	if rep.FaultsInjected == 0 {
		t.Fatalf("burst-adapt injected zero faults; it proved nothing: %s", rep)
	}
	if rep.GPUFailovers == 0 {
		t.Fatalf("kernel faults injected but no GPU→CPU failovers under adaptation: %s", rep)
	}
	if rep.AdaptTicks == 0 {
		t.Fatalf("adaptive controller never ticked: %s", rep)
	}
	if rep.AdaptGrows+rep.AdaptShrinks == 0 {
		t.Fatalf("controller ticked %d times but never resized ϕ under a 6× burst: %s",
			rep.AdaptTicks, rep)
	}
	if rep.PhiFinal < 256 || rep.PhiFinal > 4096 {
		t.Fatalf("final ϕ %d escaped [MinPhi, MaxPhi]: %s", rep.PhiFinal, rep)
	}
	if rep.TasksQuarantined != 0 || rep.TuplesOut != rep.TuplesIn {
		t.Fatalf("conservation under burst-adapt chaos: %s", rep)
	}
}

// TestChaosSeedDeterminism re-runs one chaos scenario with the same seed
// and asserts the injected-fault schedule is identical — the property
// that makes a chaos failure replayable from its logged seed.
func TestChaosSeedDeterminism(t *testing.T) {
	run := func() *Report {
		inj := fault.New(4242)
		inj.Arm(fault.PlanExec, fault.Spec{Rate: 0.05, Limit: 50})
		return runClean(t, Config{
			Seed:     4242,
			Workload: WorkloadPassthrough,
			Tuples:   scale(5000, 20000),
			Engine:   engine.Config{CPUWorkers: 4},
			Chaos:    inj,
		})
	}
	a, b := run(), run()
	if a.FaultsInjected != b.FaultsInjected || a.TasksCreated != b.TasksCreated {
		t.Fatalf("same seed, different chaos: %s vs %s", a, b)
	}
}
