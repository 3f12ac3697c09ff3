package harness

import (
	"fmt"
	"math"
	"time"

	"saber/internal/engine"
	"saber/internal/fault"
)

// ChaosScenario is one named fault-injection configuration for the
// stress harness. Cfg carries an armed injector; Check asserts the
// scenario-specific evidence that the targeted fault path really fired
// (a chaos run that injects nothing proves nothing). The generic
// verdicts — zero invariant violations, tuple conservation, no
// quarantine — are asserted by the caller on the Report.
type ChaosScenario struct {
	Name  string
	Cfg   Config
	Check func(*Report) error
}

// ChaosScenarios builds the standard chaos suite, seeded so every run is
// replayable: GPU kernel faults, DMA errors and device hangs (failover +
// exactly-once dedup), CPU plan-execution errors (retry path), ingest
// disconnects (reconnect + frame-level exactly-once), and a mixed storm.
// Rates carry Limits and the engine retry budget stays above any
// plausible consecutive-failure streak, so no scenario quarantines work
// — the conservation invariants must hold exactly.
func ChaosScenarios(seed int64) []ChaosScenario {
	var out []ChaosScenario
	add := func(name string, cfg Config, arm map[fault.Site]fault.Spec, check func(*Report) error) {
		inj := fault.New(seed ^ int64(len(out)+1)*0x9e3779b9)
		for site, spec := range arm {
			inj.Arm(site, spec)
		}
		cfg.Seed = seed + int64(len(out))*1009
		cfg.Chaos = inj
		if cfg.Engine.MaxTaskRetries == 0 {
			cfg.Engine.MaxTaskRetries = 6
		}
		out = append(out, ChaosScenario{Name: name, Cfg: cfg, Check: check})
	}

	// Hybrid base: jittered identity workload with the device pinned
	// preferred, so it receives every task until a fault fails one over
	// to the CPU class.
	hybrid := Config{
		Workload:  WorkloadJitter,
		Tuples:    25000,
		Engine:    engine.Config{CPUWorkers: 4, TaskSize: 1024, SwitchThreshold: 3},
		GPU:       true,
		GPURate:   math.Inf(1),
		MaxJitter: time.Millisecond,
	}

	add("gpu-kernel-fault", hybrid,
		map[fault.Site]fault.Spec{
			fault.GPUKernel: {Rate: 0.15, Limit: 200},
		},
		func(r *Report) error {
			if r.GPUFailovers == 0 {
				return fmt.Errorf("kernel faults injected but no GPU→CPU failovers")
			}
			return nil
		})

	add("gpu-dma-error", hybrid,
		map[fault.Site]fault.Spec{
			fault.GPUCopyIn: {Rate: 0.15, Limit: 200},
		},
		func(r *Report) error {
			if r.GPUFailovers == 0 {
				return fmt.Errorf("DMA errors injected but no GPU→CPU failovers")
			}
			return nil
		})

	hang := hybrid
	hang.Tuples = 15000
	hang.Engine.GPUTaskTimeout = 8 * time.Millisecond
	add("gpu-device-hang", hang,
		map[fault.Site]fault.Spec{
			fault.GPUHang: {Rate: 0.05, Delay: 30 * time.Millisecond, Limit: 10},
		},
		func(r *Report) error {
			if r.GPUTimeouts == 0 {
				return fmt.Errorf("hangs injected but no task timeouts detected")
			}
			return nil
		})

	add("cpu-plan-error", Config{
		Workload: WorkloadPassthrough,
		Tuples:   40000,
		Engine:   engine.Config{CPUWorkers: 8, TaskSize: 1024},
	},
		map[fault.Site]fault.Spec{
			fault.PlanExec: {Rate: 0.03, Limit: 100},
		},
		func(r *Report) error {
			if r.TasksRetried == 0 {
				return fmt.Errorf("plan errors injected but no retries")
			}
			return nil
		})

	add("ingest-disconnect", Config{
		Workload: WorkloadPassthrough,
		Tuples:   20000,
		Engine:   engine.Config{CPUWorkers: 4, TaskSize: 1024},
		Ingest:   true,
	},
		map[fault.Site]fault.Spec{
			fault.IngestDrop:  {Rate: 0.08, Limit: 100},
			fault.IngestStall: {Rate: 0.01, Delay: 5 * time.Millisecond, Limit: 10},
		},
		func(r *Report) error {
			if r.IngestReconnects == 0 {
				return fmt.Errorf("disconnects injected but feeder never reconnected")
			}
			return nil
		})

	mixed := hybrid
	mixed.Engine.CPUWorkers = 6
	add("hybrid-mixed-storm", mixed,
		map[fault.Site]fault.Spec{
			fault.GPUKernel: {Rate: 0.1, Limit: 100},
			fault.GPUCopyIn: {Rate: 0.05, Limit: 60},
			fault.PlanExec:  {Rate: 0.01, Limit: 40},
		},
		func(r *Report) error {
			if r.TasksFailed == 0 {
				return fmt.Errorf("mixed storm injected but nothing failed")
			}
			return nil
		})

	return out
}
