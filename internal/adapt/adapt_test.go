package adapt

import (
	"strings"
	"testing"
	"time"
)

// Unit tests for the pure Step core: each case pins one branch of the
// decision rule with hand-built signals, no plant.

// calmSignals reads as comfortably in-band: busy enough to trust, low
// tail, no overhead pressure.
func calmSignals() Signals {
	return Signals{
		Tasks:        100,
		E2EP99:       int64(5 * time.Millisecond),
		QueueP99:     int64(1 * time.Millisecond),
		IngestP99:    int64(1 * time.Millisecond),
		ServiceMean:  int64(2 * time.Millisecond),
		OverheadMean: int64(100 * time.Microsecond),
	}
}

func TestStepIdleHolds(t *testing.T) {
	cfg := testConfig()
	sig := Signals{Tasks: 1, E2EP99: int64(time.Hour)} // terrifying tail, but only 1 task
	st, d := Step(cfg, State{Phi: 128 << 10}, sig)
	if d.Action != Hold {
		t.Fatalf("idle tick resized: %+v", d)
	}
	if st.Phi != 128<<10 {
		t.Fatalf("idle tick moved ϕ to %d", st.Phi)
	}
	if !strings.Contains(d.Reason, "idle") {
		t.Fatalf("reason %q does not mention idle", d.Reason)
	}
}

func TestStepShrinkOverSLO(t *testing.T) {
	cfg := testConfig() // SLO 20ms
	sig := calmSignals()
	sig.E2EP99 = int64(30 * time.Millisecond)
	st, d := Step(cfg, State{Phi: 256 << 10}, sig)
	if d.Action != Shrink {
		t.Fatalf("want shrink over SLO, got %+v", d)
	}
	if st.Phi >= 256<<10 {
		t.Fatalf("shrink did not reduce ϕ: %d", st.Phi)
	}
	if st.Phi%phiQuantum != 0 {
		t.Fatalf("ϕ %d not quantum-aligned", st.Phi)
	}
}

// TestStepShrinkOnIngestTail: the case the live engine hits at low
// rate — e2e alone is comfortably under the SLO, but the batching delay
// (ingest tail) pushes the combined journey over. The controller must
// read TailP99 = e2e + ingest and shrink.
func TestStepShrinkOnIngestTail(t *testing.T) {
	cfg := testConfig() // SLO 20ms
	sig := calmSignals()
	sig.E2EP99 = int64(8 * time.Millisecond)     // fine on its own
	sig.IngestP99 = int64(15 * time.Millisecond) // ring takes ages to fill a task
	st, d := Step(cfg, State{Phi: 1 << 20}, sig)
	if d.Action != Shrink {
		t.Fatalf("want shrink on ingest-dominated tail, got %+v", d)
	}
	if !strings.Contains(d.Reason, "ingest") {
		t.Fatalf("reason %q should attribute the tail", d.Reason)
	}
	if st.Phi >= 1<<20 {
		t.Fatalf("ϕ did not shrink: %d", st.Phi)
	}
}

func TestStepShrinkOnQueueBudget(t *testing.T) {
	cfg := testConfig() // queue budget = 0.5 · 20ms = 10ms
	sig := calmSignals()
	sig.QueueP99 = int64(12 * time.Millisecond) // over budget, e2e still fine
	_, d := Step(cfg, State{Phi: 256 << 10}, sig)
	if d.Action != Shrink {
		t.Fatalf("want shrink on queue budget, got %+v", d)
	}
}

func TestStepGrowWhenDispatchBound(t *testing.T) {
	cfg := testConfig()
	sig := calmSignals()
	sig.ServiceMean = int64(1 * time.Millisecond)
	sig.OverheadMean = int64(1 * time.Millisecond) // 50% overhead share
	st, d := Step(cfg, State{Phi: 64 << 10}, sig)
	if d.Action != Grow {
		t.Fatalf("want grow when dispatch-bound with headroom, got %+v", d)
	}
	if st.Phi <= 64<<10 {
		t.Fatalf("grow did not increase ϕ: %d", st.Phi)
	}
}

// TestStepDeadbandHolds: dispatch-bound but the tail sits between
// headroom·SLO and SLO — the hysteresis band where neither rule fires.
func TestStepDeadbandHolds(t *testing.T) {
	cfg := testConfig() // headroom ceiling = 0.6 · 20ms = 12ms
	sig := calmSignals()
	sig.ServiceMean = int64(1 * time.Millisecond)
	sig.OverheadMean = int64(1 * time.Millisecond)
	sig.E2EP99 = int64(14 * time.Millisecond) // over headroom, under SLO
	_, d := Step(cfg, State{Phi: 64 << 10}, sig)
	if d.Action != Hold {
		t.Fatalf("want hold in deadband, got %+v", d)
	}
}

func TestStepCooldownHolds(t *testing.T) {
	cfg := testConfig()
	sig := calmSignals()
	sig.E2EP99 = int64(30 * time.Millisecond)
	st := State{Phi: 256 << 10}
	var d Decision
	st, d = Step(cfg, st, sig)
	if d.Action != Shrink {
		t.Fatalf("setup: want shrink, got %+v", d)
	}
	phi := st.Phi
	// The next holdTicks (2) ticks must hold even though the signal still
	// screams shrink.
	for i := 0; i < 2; i++ {
		st, d = Step(cfg, st, sig)
		if d.Action != Hold || st.Phi != phi {
			t.Fatalf("cooldown tick %d resized: %+v (ϕ %d)", i, d, st.Phi)
		}
		if !strings.Contains(d.Reason, "cooldown") {
			t.Fatalf("cooldown tick %d reason %q", i, d.Reason)
		}
	}
	// Cooldown spent: the persistent signal acts again.
	st, d = Step(cfg, st, sig)
	if d.Action != Shrink || st.Phi >= phi {
		t.Fatalf("post-cooldown tick did not shrink: %+v (ϕ %d)", d, st.Phi)
	}
}

func TestStepAtBoundClampedHold(t *testing.T) {
	cfg := testConfig()
	sig := calmSignals()
	sig.E2EP99 = int64(30 * time.Millisecond)
	st, d := Step(cfg, State{Phi: cfg.MinPhi}, sig)
	if d.Action != Hold || !d.Clamped {
		t.Fatalf("want clamped hold at MinPhi, got %+v", d)
	}
	if st.Phi != cfg.MinPhi {
		t.Fatalf("ϕ left the bound: %d", st.Phi)
	}
}

// TestStepDampingFloorProgress: at the 1/16 damping floor a grow of a
// small ϕ quantizes back to the same value — the forced +quantum keeps
// the controller from freezing. (Shrink cannot freeze: quantization
// rounds down, so it always moves.)
func TestStepDampingFloorProgress(t *testing.T) {
	cfg := testConfig()
	cfg.MinPhi = 1 << 10
	sig := calmSignals()
	sig.ServiceMean = int64(1 * time.Millisecond)
	sig.OverheadMean = int64(1 * time.Millisecond) // dispatch-bound
	// ϕ=1024 at scale 1/16: 1024·1.03125 = 1056 → quantized back to 1024.
	st := State{Phi: 1 << 10, StepScale: stepScaleFloor}
	st2, d := Step(cfg, st, sig)
	if d.Action != Grow {
		t.Fatalf("want grow at damping floor, got %+v", d)
	}
	if st2.Phi != st.Phi+phiQuantum {
		t.Fatalf("want forced one-quantum step %d → %d, got %d",
			st.Phi, st.Phi+phiQuantum, st2.Phi)
	}
}

// TestStepReversalDamping: a direction reversal halves StepScale; the
// same direction again recovers it.
func TestStepReversalDamping(t *testing.T) {
	cfg := testConfig()
	grow := calmSignals()
	grow.ServiceMean = int64(1 * time.Millisecond)
	grow.OverheadMean = int64(1 * time.Millisecond)
	shrink := calmSignals()
	shrink.E2EP99 = int64(30 * time.Millisecond)

	st := State{Phi: 256 << 10, LastDir: +1, StepScale: 1}
	st, d := Step(cfg, st, shrink) // reversal
	if d.Action != Shrink {
		t.Fatalf("setup: want shrink, got %+v", d)
	}
	if st.StepScale != 0.5 {
		t.Fatalf("reversal should halve StepScale to 0.5, got %v", st.StepScale)
	}
	st.Cooldown = 0
	st, d = Step(cfg, st, shrink) // same direction: recovery
	if d.Action != Shrink {
		t.Fatalf("want repeated shrink, got %+v", d)
	}
	if st.StepScale != 0.75 {
		t.Fatalf("steady movement should recover StepScale ×1.5 to 0.75, got %v", st.StepScale)
	}
	_ = grow
}

// TestStepCalmRecoversScale: calmReset in-band ticks restore StepScale
// to 1.
func TestStepCalmRecoversScale(t *testing.T) {
	cfg := testConfig()
	st := State{Phi: 128 << 10, StepScale: stepScaleFloor, LastDir: -1}
	sig := calmSignals()
	for i := 0; i < calmReset; i++ {
		var d Decision
		st, d = Step(cfg, st, sig)
		if d.Action != Hold {
			t.Fatalf("calm tick %d resized: %+v", i, d)
		}
	}
	if st.StepScale != 1 {
		t.Fatalf("StepScale not restored after %d calm ticks: %v", calmReset, st.StepScale)
	}
}

func TestStepDefaultsApplied(t *testing.T) {
	// Zero config + zero state must still behave: defaults land ϕ at
	// MinPhi and the decision is well-formed.
	st, d := Step(Config{}, State{}, calmSignals())
	if st.Phi != 4<<10 {
		t.Fatalf("default MinPhi not applied: ϕ %d", st.Phi)
	}
	if d.Reason == "" {
		t.Fatalf("empty reason")
	}
}

func TestOverheadShare(t *testing.T) {
	s := Signals{ServiceMean: 300, OverheadMean: 100}
	if got := s.OverheadShare(); got != 0.25 {
		t.Fatalf("OverheadShare = %v, want 0.25", got)
	}
	if got := (Signals{}).OverheadShare(); got != 0 {
		t.Fatalf("zero signals OverheadShare = %v", got)
	}
}
