package adapt

import (
	"strings"
	"testing"
	"time"
)

// The simulation rig: every test drives the pure controller (Step)
// closed-loop against the deterministic Plant, so failures reproduce
// from the seed alone — rerun with the printed seed and the trajectory
// is byte-identical (see TESTING.md).

func testConfig() Config {
	return Config{
		MinPhi: 16 << 10,
		MaxPhi: 4 << 20,
		SLO:    20 * time.Millisecond,
	}
}

// phisAfter returns the trajectory's tail beyond the convergence
// prefix, for band assertions.
func phisAfter(r SimResult, tick int) []int {
	if tick > len(r.Phis) {
		tick = len(r.Phis)
	}
	return r.Phis[tick:]
}

// TestSteadyConverges: under a constant moderate load the controller
// must settle into a band and stay there — bounded total resizes, no
// movement at all in the second half of the run.
func TestSteadyConverges(t *testing.T) {
	const seed = 1
	plant := NewPlant(seed)
	// 800 MB/s steady: capacity(ϕ) crosses this around ϕ = 80 KiB, and
	// the latency budget is generous, so the controller should find a
	// comfortable ϕ and stop.
	res := Simulate(testConfig(), plant, 64<<10, 200, SteadyTrace(800e6))

	if n := res.Resizes(); n > 40 {
		t.Fatalf("seed %d: %d resizes over 200 steady ticks — not converging; trajectory:\n%s",
			seed, n, res.Trajectory())
	}
	late := res.Decisions[100:]
	for i, d := range late {
		if d.Action != Hold {
			t.Fatalf("seed %d: resize (%s) at tick %d after convergence window; trajectory:\n%s",
				seed, d.Reason, 100+i, res.Trajectory())
		}
	}
}

// TestStepBurstRecovers: a step burst must push ϕ down (shedding
// latency) and the controller must return to a steady hold after the
// burst passes — without a limit cycle.
func TestStepBurstRecovers(t *testing.T) {
	const seed = 2
	plant := NewPlant(seed)
	cfg := testConfig()
	// Base 400 MB/s, burst to 1.6 GB/s (near MaxRate — heavy queueing)
	// for ticks [60, 100).
	res := Simulate(cfg, plant, 256<<10, 240, StepBurstTrace(400e6, 1.6e9, 60, 40))

	// During the burst the backlog forces queue p99 over budget: the
	// controller must have shrunk below its pre-burst ϕ.
	minDuring := cfg.MaxPhi
	for _, phi := range res.Phis[60:100] {
		if phi < minDuring {
			minDuring = phi
		}
	}
	if minDuring >= res.Phis[59] {
		t.Fatalf("seed %d: burst did not shrink ϕ (pre-burst %d, min during %d); trajectory:\n%s",
			seed, res.Phis[59], minDuring, res.Trajectory())
	}

	// Well after the burst the controller is calm again: no resizes over
	// the last 60 ticks.
	for i, d := range res.Decisions[180:] {
		if d.Action != Hold {
			t.Fatalf("seed %d: still resizing (%s) at tick %d, 80+ ticks after the burst; trajectory:\n%s",
				seed, d.Reason, 180+i, res.Trajectory())
		}
	}
}

// TestDiurnalRampBounded: a slow diurnal ramp must be tracked with a
// bounded number of steps per period — a well-damped controller moves a
// few times per phase, not every tick.
func TestDiurnalRampBounded(t *testing.T) {
	const seed = 3
	plant := NewPlant(seed)
	// One 100-tick period ramping 200 MB/s → 1.4 GB/s → 200 MB/s, four
	// periods.
	res := Simulate(testConfig(), plant, 128<<10, 400, DiurnalTrace(200e6, 1.4e9, 100))

	if n := res.Resizes(); n > 120 {
		t.Fatalf("seed %d: %d resizes over 400 diurnal ticks (>30%% duty) — thrashing; trajectory:\n%s",
			seed, n, res.Trajectory())
	}
	// ϕ must actually follow the load: the trajectory is not allowed to
	// pin to one bound for the whole run.
	lo, hi := res.Phis[0], res.Phis[0]
	for _, phi := range res.Phis {
		if phi < lo {
			lo = phi
		}
		if phi > hi {
			hi = phi
		}
	}
	if lo == hi {
		t.Fatalf("seed %d: ϕ never moved under a diurnal ramp; trajectory:\n%s", seed, res.Trajectory())
	}
}

// TestOscillatorNoLimitCycle: the adversarial square-wave load flips at
// the controller's own cadence, trying to resonate. Step damping must
// bleed the oscillation out: the resize rate over the last quarter of
// the run must be well below the flip rate, and the late ϕ range must
// be narrower than the early range.
func TestOscillatorNoLimitCycle(t *testing.T) {
	const seed = 4
	plant := NewPlant(seed)
	// Flip every 6 ticks — twice the controller's holdTicks+1 cadence, the
	// resonance-friendly shape.
	res := Simulate(testConfig(), plant, 256<<10, 400, OscillatorTrace(300e6, 1.3e9, 6))

	late := res.Decisions[300:]
	resizes := 0
	for _, d := range late {
		if d.Action != Hold {
			resizes++
		}
	}
	// 100 late ticks contain ~16 flips; a limit cycle would resize on
	// most of them.
	if resizes > 8 {
		t.Fatalf("seed %d: %d resizes in the last 100 oscillator ticks — limit cycle; trajectory:\n%s",
			seed, resizes, res.Trajectory())
	}

	span := func(phis []int) int {
		lo, hi := phis[0], phis[0]
		for _, p := range phis {
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		return hi - lo
	}
	if early, lateSpan := span(res.Phis[:100]), span(phisAfter(res, 300)); lateSpan > early && early > 0 {
		t.Fatalf("seed %d: oscillation widening (early span %d, late span %d); trajectory:\n%s",
			seed, early, lateSpan, res.Trajectory())
	}
}

// TestSeedDeterminism: the byte-identity property the whole rig rests
// on — same seed, same config ⇒ identical trajectory string; different
// seed ⇒ (almost surely) different noise draws, same qualitative shape.
func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) SimResult {
		return Simulate(testConfig(), NewPlant(seed), 64<<10, 300, DiurnalTrace(200e6, 1.2e9, 75))
	}
	a, b := run(7), run(7)
	if a.Trajectory() != b.Trajectory() {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a.Trajectory(), b.Trajectory())
	}
	if len(a.Signals) != len(b.Signals) {
		t.Fatalf("signal traces differ in length: %d vs %d", len(a.Signals), len(b.Signals))
	}
	for i := range a.Signals {
		if a.Signals[i] != b.Signals[i] {
			t.Fatalf("same seed, different signals at tick %d: %+v vs %+v", i, a.Signals[i], b.Signals[i])
		}
	}
}

// TestReplayMatchesSimulate: replaying the signal trace a closed-loop
// run recorded must reproduce the closed-loop decisions exactly — the
// property that lets captured engine telemetry be debugged offline.
func TestReplayMatchesSimulate(t *testing.T) {
	cfg := testConfig()
	sim := Simulate(cfg, NewPlant(11), 64<<10, 200, StepBurstTrace(300e6, 1.5e9, 50, 30))
	rep := Replay(cfg, 64<<10, sim.Signals)
	if sim.Trajectory() != rep.Trajectory() {
		t.Fatalf("replay diverged from closed loop:\n%s\nvs\n%s", sim.Trajectory(), rep.Trajectory())
	}
}

// TestTrajectoryShape sanity-checks the trajectory serialization format
// tests print on failure: one "<letter><phi>" token per tick.
func TestTrajectoryShape(t *testing.T) {
	res := Simulate(testConfig(), NewPlant(5), 64<<10, 10, SteadyTrace(500e6))
	toks := strings.Fields(res.Trajectory())
	if len(toks) != 10 {
		t.Fatalf("trajectory has %d tokens, want 10: %q", len(toks), res.Trajectory())
	}
	for _, tok := range toks {
		switch tok[0] {
		case 'g', 's', 'h':
		default:
			t.Fatalf("bad action letter in token %q", tok)
		}
	}
}
