package workload

import "time"

// RateFunc is an offered-load profile: bytes per second at time elapsed
// since the start of the run. Profiles are pure functions of elapsed
// time, so a feeder replaying one against a seeded generator produces
// the same byte stream every run — the property the adaptive-ϕ
// experiments and chaos scenarios depend on.
type RateFunc func(elapsed time.Duration) float64

// SteadyRate offers a constant load.
func SteadyRate(bytesPerSec float64) RateFunc {
	return func(time.Duration) float64 { return bytesPerSec }
}

// BurstRate is the bursty profile: base load with a step to burst for
// burstLen at the start of every period. The square edges are the
// hardest case for a ϕ controller — no ramp to foreshadow the step.
func BurstRate(base, burst float64, period, burstLen time.Duration) RateFunc {
	return func(elapsed time.Duration) float64 {
		if period <= 0 {
			return base
		}
		if elapsed%period < burstLen {
			return burst
		}
		return base
	}
}

// PaceTuples converts a rate profile into the deterministic per-tick
// tuple counts a feeder should insert: tick i covers
// [i·tick, (i+1)·tick) and carries rate(i·tick)·tick bytes rounded down
// to whole tuples, with the rounding remainder carried forward so the
// long-run average matches the profile exactly. The returned schedule
// is what both the bench feeder and the chaos scenario replay.
func PaceTuples(f RateFunc, tupleSize int, tick, total time.Duration) []int {
	if tick <= 0 || total <= 0 || tupleSize <= 0 {
		return nil
	}
	n := int(total / tick)
	out := make([]int, 0, n)
	carry := 0.0
	for i := 0; i < n; i++ {
		bytes := f(time.Duration(i)*tick)*tick.Seconds() + carry
		tuples := int(bytes) / tupleSize
		if tuples < 0 {
			tuples = 0
		}
		carry = bytes - float64(tuples*tupleSize)
		out = append(out, tuples)
	}
	return out
}
