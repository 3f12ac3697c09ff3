// Package overload implements the engine's overload-protection layer:
// admission-control budgets for the per-query input queues, tiered load
// shedding policies that degrade gracefully instead of stalling, and a
// stall watchdog that detects a wedged pipeline.
//
// The policy ladder is deliberate (DESIGN.md §12): a loaded engine first
// shrinks ϕ (internal/adapt), then exerts backpressure against the
// budget, and only as a last rung sheds tuples — the oldest queued task
// first to bound staleness, or probabilistically weighted per source.
// Every shed tuple is accounted for exactly, so the harness conservation
// invariant `offered == out + shed` holds at quiesce.
package overload

import (
	"fmt"
	"math/rand"
	"time"
)

// Policy selects what the engine does when a query's input queue exceeds
// its budget and the bounded admission wait expires.
type Policy int

const (
	// ShedNone never drops data: admission blocks (quiesce-aware
	// backpressure) until the queue drains below budget.
	ShedNone Policy = iota
	// ShedOldest sheds the query's oldest queued task first: it leaves
	// the task queue unrun, whichever processor would have run it, as an
	// accounted gap, and its drain frees budget for fresh data. Bounds
	// result staleness under overload. A query with no queued task
	// (paused, or all in flight) blocks instead, as under ShedNone.
	ShedOldest
	// ShedWeighted sheds incoming chunks probabilistically, with a
	// per-source weight scaling the drop probability, so hot sources
	// absorb more of the loss than light ones.
	ShedWeighted
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case ShedNone:
		return "none"
	case ShedOldest:
		return "oldest"
	case ShedWeighted:
		return "weighted"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a -shed-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "none":
		return ShedNone, nil
	case "oldest":
		return ShedOldest, nil
	case "weighted":
		return ShedWeighted, nil
	}
	return ShedNone, fmt.Errorf("overload: unknown shed policy %q (none|oldest|weighted)", s)
}

// Config tunes the overload layer. The zero value disables budgets and
// shedding but still arms the quiesce-aware bounded admission wait and
// the stall watchdog.
type Config struct {
	// MaxQueueBytes is the per-query, per-input buffered-bytes budget
	// admission enforces. 0 means the ring capacity is the only bound.
	// The effective budget is floored so at least one task can always be
	// cut (see EffectiveBudget) — a budget below 2ϕ would deadlock the
	// dispatcher, not protect it.
	MaxQueueBytes int64
	// Policy is the shedding rung. ShedNone (default) blocks instead.
	Policy Policy
	// MaxWait bounds how long a blocking Insert waits on budget or ring
	// space before the shedding policy actuates. Default 2ms.
	MaxWait time.Duration
	// DropProb is ShedWeighted's base per-chunk drop probability once the
	// bounded wait expires. Default 0.5.
	DropProb float64
	// Weights scales DropProb per input side (join queries); 0 means 1.0.
	// A heavier source sheds proportionally more.
	Weights [2]float64
	// Seed makes ShedWeighted's coin flips reproducible. 0 derives a
	// fixed default so chaos runs stay deterministic.
	Seed int64
	// StallTimeout is how long the watchdog tolerates buffered input with
	// no drain progress before declaring the pipeline wedged; it probes
	// every StallTimeout/8. Default 5s.
	StallTimeout time.Duration
}

// WithDefaults fills the zero fields.
func (c Config) WithDefaults() Config {
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.DropProb <= 0 || c.DropProb > 1 {
		c.DropProb = 0.5
	}
	for i := range c.Weights {
		if c.Weights[i] <= 0 {
			c.Weights[i] = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 0x5abe2
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	return c
}

// EffectiveBudget clamps a configured queue budget so admission can
// always make progress: at least two live task sizes (the dispatcher
// needs a full ϕ pending to cut, plus headroom for the cut in flight)
// and at least the chunk being admitted. max <= 0 disables the budget.
func EffectiveBudget(max, phi, need int64) int64 {
	if max <= 0 {
		return 0
	}
	b := max
	if m := 2 * phi; b < m {
		b = m
	}
	if b < need {
		b = need
	}
	return b
}

// Shedder makes ShedWeighted's seeded drop decisions. It is not
// goroutine-safe; the engine calls it under the query's ingest lock,
// which also makes the decision sequence deterministic for a seed.
type Shedder struct {
	cfg Config
	rnd *rand.Rand
}

// NewShedder creates a Shedder for a defaulted Config.
func NewShedder(cfg Config) *Shedder {
	return &Shedder{cfg: cfg, rnd: rand.New(rand.NewSource(cfg.Seed))}
}

// DropChunk flips the weighted coin for one incoming chunk on the given
// input side.
func (s *Shedder) DropChunk(side int) bool {
	p := s.cfg.DropProb * s.cfg.Weights[side&1]
	if p >= 1 {
		return true
	}
	return s.rnd.Float64() < p
}
