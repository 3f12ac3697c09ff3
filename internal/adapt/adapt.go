// Package adapt implements SABER's adaptive task sizing: a feedback
// controller that resizes ϕ — the query task size the dispatcher cuts —
// between a configured [MinPhi, MaxPhi] using the per-stage latency
// histograms of internal/obs as its sensor.
//
// SABER fixes ϕ statically, which trades GPU dispatch efficiency
// against queueing and tail latency once and for all; LMStream
// (PAPERS.md) shows the trade should move with the load. The controller
// implements that policy:
//
//   - shrink ϕ when the tail latency or the queue-wait p99 exceeds
//     the configured latency SLO (a too-large batch is either waiting
//     to fill at low rate — batching delay — or clogging the queue);
//   - grow ϕ when the pipeline is dispatch-bound — the fixed per-task
//     overhead (GPU launch, DMA staging, scheduling) is a large
//     fraction of per-task service time — and the measured tail has
//     headroom under the SLO, so larger batches buy throughput without
//     spending the latency budget.
//
// Oscillation is suppressed twice over: a deadband between the shrink
// threshold (the SLO) and the grow ceiling (headroom·SLO) where the
// controller holds, plus hold-ticks after every resize and step damping
// that halves the step size whenever the direction reverses.
//
// The decision core, Step, is a pure function of (Config, State,
// Signals): no clocks, no engine, no atomics. Tests replay canned or
// simulated signal traces through it (see sim.go) and the live
// Controller (controller.go) merely feeds it real histogram deltas.
package adapt

import (
	"fmt"
	"time"
)

// Config tunes the controller. The zero value is not runnable; Step
// applies defaults for every unset field, so callers only need MinPhi,
// MaxPhi and SLO. The control law's own gains are the package constants
// below.
type Config struct {
	// MinPhi and MaxPhi bound ϕ in bytes. Defaults 4 KiB and 4 MiB.
	MinPhi, MaxPhi int
	// SLO is the end-to-end p99 latency target. Default 50ms.
	SLO time.Duration
	// Interval is the live controller's tick period (the pure Step is
	// tickless — this is consumed by the engine's control loop only).
	// Default 50ms.
	Interval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MinPhi <= 0 {
		c.MinPhi = 4 << 10
	}
	if c.MaxPhi <= 0 {
		c.MaxPhi = 4 << 20
	}
	if c.MaxPhi < c.MinPhi {
		c.MaxPhi = c.MinPhi
	}
	if c.SLO <= 0 {
		c.SLO = 50 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	return c
}

// Signals is one control tick's sensor reading, derived from the
// per-tick delta of the obs latency histograms (see DeltaSignals). It
// is plain data so recorded traces replay through Step without an
// engine.
type Signals struct {
	// Tasks is the number of task traces finished during the tick.
	Tasks int64
	// E2EP99, QueueP99 and IngestP99 are the tick's tail latencies in
	// nanoseconds: end-to-end (task cut → result delivered), queue wait,
	// and ingest batching delay (oldest byte waiting in the ring before
	// the cut). The e2e trace starts at the task cut, so the batching
	// delay — the very cost a large ϕ inflicts at low rate — is only
	// visible in IngestP99; TailP99 combines the two.
	E2EP99, QueueP99, IngestP99 int64
	// ServiceMean is the mean per-task execution time (CPU exec or GPU
	// kernel) in nanoseconds.
	ServiceMean int64
	// OverheadMean is the mean fixed per-task overhead in nanoseconds:
	// the GPU staging stages (copyin/movein/moveout/copyout) whose cost
	// does not shrink with the batch — the dispatch-bound signal.
	OverheadMean int64
}

// TailP99 is the controller's latency signal: the ingest batching tail
// plus the post-cut end-to-end tail. The two distributions are
// independent enough that the sum upper-bounds the full tuple-journey
// p99 — conservative in exactly the direction an SLO wants.
func (s Signals) TailP99() int64 { return s.E2EP99 + s.IngestP99 }

// OverheadShare is the fixed-overhead fraction of per-task service
// time, in [0, 1]. High values mean the pipeline is dispatch-bound and
// growing ϕ buys throughput.
func (s Signals) OverheadShare() float64 {
	total := s.ServiceMean + s.OverheadMean
	if total <= 0 {
		return 0
	}
	return float64(s.OverheadMean) / float64(total)
}

// State is the controller's memory between ticks. The zero value plus
// a starting Phi is a valid initial state.
type State struct {
	// Phi is the current task size in bytes.
	Phi int
	// Cooldown is how many more ticks the controller holds after the
	// last resize.
	Cooldown int
	// LastDir is the direction of the last resize: +1 grow, -1 shrink,
	// 0 none yet.
	LastDir int
	// StepScale damps the resize step in (0, 1]: halved on every
	// direction reversal, recovered while the controller moves steadily
	// or rests in band. 0 means 1 (fresh state).
	StepScale float64
	// CalmTicks counts consecutive in-band holds; a long calm stretch
	// restores StepScale to 1.
	CalmTicks int
}

// Action is what a tick decided.
type Action uint8

// Actions.
const (
	Hold Action = iota
	Grow
	Shrink
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	default:
		return "hold"
	}
}

// Decision is one tick's outcome: the action taken, the resulting ϕ,
// whether the step hit a bound, and a deterministic reason string for
// logs and postmortems.
type Decision struct {
	Action  Action
	Phi     int
	Clamped bool
	Reason  string
	// Overloaded is the ladder's last-rung signal: the tick was over the
	// SLO while ϕ already sat at MinPhi — shrinking has nothing left to
	// give, so the only remaining remedy is deliberate load shedding
	// (see internal/overload). It clears as soon as the tail recovers or
	// ϕ has room to shrink again.
	Overloaded bool
}

// The control law's gains.
const (
	// queueFrac is the share of the SLO budgeted to queue wait: the
	// controller shrinks when queue-wait p99 alone exceeds
	// queueFrac·SLO, before the e2e tail blows.
	queueFrac = 0.5
	// headroom caps growth: grow only while e2e p99 < headroom·SLO.
	// The band between headroom·SLO and SLO is the hysteresis deadband
	// where the controller holds.
	headroom = 0.6
	// overheadFrac is the dispatch-bound threshold: grow when the fixed
	// per-task overhead share of service time is at least this.
	overheadFrac = 0.35
	// growStep and shrinkStep are the multiplicative resize steps at
	// full step scale.
	growStep, shrinkStep = 1.5, 0.65
	// holdTicks is how many ticks the controller holds after a resize
	// before it may resize again (hysteresis).
	holdTicks = 2
	// minTasks is the fewest finished tasks a tick must carry for its
	// percentiles to be trusted; quieter ticks hold.
	minTasks = 4
)

// stepScaleFloor bounds damping: even a pathological oscillator keeps a
// 1/16-scale step so the controller never freezes entirely.
const stepScaleFloor = 1.0 / 16

// calmReset is the number of consecutive in-band holds after which the
// step scale recovers to 1 (the disturbance that caused the damping has
// passed).
const calmReset = 8

// phiQuantum aligns ϕ steps; sub-64-byte wiggle is below any tuple
// size and would only make trajectories noisy.
const phiQuantum = 64

// Step advances the controller by one tick. It is a pure function:
// identical (cfg, st, sig) always yield the identical (State,
// Decision), which is what makes the simulation rig deterministic.
func Step(cfg Config, st State, sig Signals) (State, Decision) {
	cfg = cfg.withDefaults()
	if st.StepScale <= 0 {
		st.StepScale = 1
	}
	if st.Phi <= 0 {
		st.Phi = cfg.MinPhi
	}
	st.Phi = clampPhi(st.Phi, cfg)

	hold := func(reason string) (State, Decision) {
		if st.Cooldown > 0 {
			st.Cooldown--
		}
		return st, Decision{Action: Hold, Phi: st.Phi, Reason: reason}
	}

	if sig.Tasks < minTasks {
		// Too quiet to trust the percentiles; also counts as calm.
		st.CalmTicks++
		if st.CalmTicks >= calmReset {
			st.StepScale = 1
		}
		return hold(fmt.Sprintf("idle: %d tasks < %d", sig.Tasks, minTasks))
	}

	slo := int64(cfg.SLO)
	queueBudget := int64(float64(slo) * queueFrac)
	tail := sig.TailP99()
	overSLO := tail > slo || sig.QueueP99 > queueBudget
	// Over the SLO with ϕ already pinned at the floor: every decision
	// this tick returns carries the last-rung overload signal.
	overloaded := overSLO && st.Phi <= cfg.MinPhi
	inHeadroom := float64(tail) < headroom*float64(slo) &&
		float64(sig.QueueP99) < headroom*float64(queueBudget)
	dispatchBound := sig.OverheadShare() >= overheadFrac

	want := 0
	var why string
	switch {
	case overSLO:
		want = -1
		why = fmt.Sprintf("over SLO: tail p99 %v (e2e %v + ingest %v), queue p99 %v (slo %v)",
			time.Duration(tail), time.Duration(sig.E2EP99), time.Duration(sig.IngestP99),
			time.Duration(sig.QueueP99), cfg.SLO)
	case dispatchBound && inHeadroom:
		want = +1
		why = fmt.Sprintf("dispatch-bound: overhead %.0f%% of service, tail p99 %v under %.0f%% of slo",
			sig.OverheadShare()*100, time.Duration(tail), headroom*100)
	default:
		st.CalmTicks++
		if st.CalmTicks >= calmReset {
			st.StepScale = 1
		}
		return hold("in band")
	}
	st.CalmTicks = 0

	if st.Cooldown > 0 {
		st2, d := hold(fmt.Sprintf("cooldown %d: %s", st.Cooldown, why))
		d.Overloaded = overloaded
		return st2, d
	}

	// Damping: a direction reversal halves the step, steady movement
	// recovers it. An oscillating disturbance therefore converges to
	// ever-smaller corrections instead of a limit cycle.
	if st.LastDir != 0 && want == -st.LastDir {
		st.StepScale /= 2
		if st.StepScale < stepScaleFloor {
			st.StepScale = stepScaleFloor
		}
	} else if want == st.LastDir {
		st.StepScale *= 1.5
		if st.StepScale > 1 {
			st.StepScale = 1
		}
	}

	var factor float64
	if want > 0 {
		factor = 1 + (growStep-1)*st.StepScale
	} else {
		factor = 1 - (1-shrinkStep)*st.StepScale
	}
	next := int(float64(st.Phi) * factor)
	next -= next % phiQuantum
	// Guarantee progress even at the damping floor.
	if want > 0 && next <= st.Phi {
		next = st.Phi + phiQuantum
	}
	if want < 0 && next >= st.Phi {
		next = st.Phi - phiQuantum
	}

	clamped := false
	if c := clampPhi(next, cfg); c != next {
		next = c
		clamped = true
	}
	if next == st.Phi {
		// Already pinned to the bound the signals push toward.
		st.LastDir = want
		st.Cooldown = holdTicks
		return st, Decision{Action: Hold, Phi: st.Phi, Clamped: true,
			Overloaded: overloaded,
			Reason:     fmt.Sprintf("at bound: %s", why)}
	}

	st.Phi = next
	st.LastDir = want
	st.Cooldown = holdTicks
	act := Grow
	if want < 0 {
		act = Shrink
	}
	return st, Decision{Action: act, Phi: next, Clamped: clamped, Overloaded: overloaded, Reason: why}
}

func clampPhi(phi int, cfg Config) int {
	if phi < cfg.MinPhi {
		return cfg.MinPhi
	}
	if phi > cfg.MaxPhi {
		return cfg.MaxPhi
	}
	return phi
}
