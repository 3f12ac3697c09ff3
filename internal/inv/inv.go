// Package inv defines the invariant-checker contract shared by SABER's
// concurrency-bearing subsystems (ringbuf, engine, sched, gpu) and the
// stress harness in internal/harness.
//
// A subsystem exposes machine-verifiable invariants by implementing
// Checker on one of its types — no import of this package is required,
// the interface is satisfied structurally — and the harness polls every
// checker the engine aggregates while the system runs under adversarial
// load.
//
// CheckInvariants implementations must be safe to call concurrently with
// normal operation and must only report violations that are stable under
// races (e.g. compare monotonic counters in a race-safe load order).
package inv

// Checker is one subsystem's invariant hook.
type Checker interface {
	// InvariantName identifies the checker in violation reports, e.g.
	// "ringbuf[q0/in0]" or "engine.result[q0]".
	InvariantName() string
	// CheckInvariants returns nil when every invariant holds right now,
	// or an error describing the violated invariant. It may be called at
	// any time from any goroutine while the subsystem is running.
	CheckInvariants() error
}
