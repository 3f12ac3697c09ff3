package harness

import (
	"fmt"
	"math/rand"
	"time"

	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// StreamSchema is the harness's input tuple layout: a strictly increasing
// timestamp, a strictly increasing sequence number, a random payload and
// a per-tuple checksum over the other three fields. The redundancy makes
// every concurrency failure mode machine-checkable at the sink: a torn or
// corrupted tuple fails its checksum, a dropped/duplicated/reordered
// tuple breaks the sequence, and a reordered window breaks timestamp
// monotonicity.
var StreamSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "seq", Type: schema.Int64},
	schema.Field{Name: "val", Type: schema.Int64},
	schema.Field{Name: "sum", Type: schema.Int64},
)

// tupleChecksum mixes the three value fields into the per-tuple checksum
// (splitmix64-style finalisation).
func tupleChecksum(ts, seq, val int64) int64 {
	x := uint64(ts)*0x9e3779b97f4a7c15 ^ uint64(seq)*0xbf58476d1ce4e5b9 ^ uint64(val)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int64(x)
}

// genStream builds n tuples with seeded random payloads. It returns the
// packed stream and the XOR of all tuple checksums (the multiset
// fingerprint the conservation invariant compares against).
func genStream(n int, seed int64) (data []byte, fingerprint int64) {
	rnd := rand.New(rand.NewSource(seed))
	b := schema.NewTupleBuilder(StreamSchema, n)
	for i := 0; i < n; i++ {
		ts, seq, val := int64(i), int64(i), rnd.Int63()
		sum := tupleChecksum(ts, seq, val)
		b.Begin().Timestamp(ts).Int64("seq", seq).Int64("val", val).Int64("sum", sum)
		fingerprint ^= sum
	}
	return b.Bytes(), fingerprint
}

// Workload kinds.
const (
	// WorkloadPassthrough is a selection whose predicate accepts every
	// tuple: the engine must reproduce the input stream byte for byte.
	WorkloadPassthrough = "passthrough"
	// WorkloadJitter is a pass-through UDF that additionally sleeps a
	// content-derived pseudo-random time per window fragment, maximising
	// out-of-order completion (and thus reorder/result-window pressure) while
	// keeping the expected output identical to the input.
	WorkloadJitter = "jitter"
	// WorkloadAgg is a tumbling-window COUNT(*): aggChecker derives every
	// window's timestamp and count, the end-of-stream flush's partial
	// window included, from the input stream.
	WorkloadAgg = "agg"
	// WorkloadAggTime is WorkloadAgg over a time-based window. The
	// harness stream's timestamps advance by exactly one per tuple, so
	// the window boundaries mirror the count-based variant while
	// exercising the timestamp-driven window assignment path (and, for
	// crash-restart runs, the checkpointed PrevTimestamp continuity).
	WorkloadAggTime = "aggtime"
)

// isAggWorkload reports whether the workload collapses windows into
// aggregate rows (so per-tuple conservation does not apply).
func isAggWorkload(w string) bool { return w == WorkloadAgg || w == WorkloadAggTime }

// buildQuery constructs the workload query named name.
func buildQuery(cfg Config, name string) (*query.Query, error) {
	win := window.NewCount(cfg.WindowSize, cfg.WindowSize)
	switch cfg.Workload {
	case WorkloadPassthrough:
		return query.NewBuilder(name).
			From("S", StreamSchema, win).
			Where(expr.Cmp{Op: expr.Ge, Left: expr.Col("seq"), Right: expr.IntConst(0)}).
			Build()
	case WorkloadJitter:
		return query.NewBuilder(name).
			From("S", StreamSchema, win).
			UDF(jitterUDF(cfg)).
			Build()
	case WorkloadAgg:
		return query.NewBuilder(name).
			From("S", StreamSchema, win).
			Aggregate(query.Count, nil, "n").
			Build()
	case WorkloadAggTime:
		return query.NewBuilder(name).
			From("S", StreamSchema, window.NewTime(cfg.WindowSize, cfg.WindowSize)).
			Aggregate(query.Count, nil, "n").
			Build()
	default:
		return nil, fmt.Errorf("harness: unknown workload %q", cfg.Workload)
	}
}

// jitterUDF is the identity operator with adversarial timing: each window
// fragment sleeps a delay derived deterministically from its content and
// the run seed, so completion order scrambles independently of the
// scheduler while reproducing exactly under the same seed.
func jitterUDF(cfg Config) *query.UDF {
	seed, maxJitter, minProc := cfg.Seed, cfg.MaxJitter, cfg.MinProcess
	return &query.UDF{
		Name: "jitter-passthrough",
		Out:  StreamSchema,
		ProcessFragment: func(in [][]byte) []byte {
			d := jitterDelay(in[0], seed, maxJitter)
			if d < minProc {
				// The deterministic service-time floor (Config.MinProcess)
				// that gives the shape a computable capacity bound.
				d = minProc
			}
			if d > 0 {
				time.Sleep(d)
			}
			return append([]byte(nil), in[0]...)
		},
		Merge:    func(acc, next []byte) []byte { return append(acc, next...) },
		Finalize: func(partial []byte) []byte { return partial },
	}
}

// jitterDelay maps a fragment's first tuple to a sleep in [0, max): three
// quarters of fragments return zero, the rest spread across the range, so
// stragglers are rare enough to keep throughput but long enough to push
// completions past the reordering window.
func jitterDelay(fragment []byte, seed int64, max time.Duration) time.Duration {
	if max <= 0 || len(fragment) < StreamSchema.TupleSize() {
		return 0
	}
	first := StreamSchema.ReadInt64(fragment, 1) // seq field
	h := uint64(tupleChecksum(first, seed, 0x6a09e667f3bcc909))
	if h%4 != 0 {
		return 0
	}
	return time.Duration((h >> 2) % uint64(max))
}
