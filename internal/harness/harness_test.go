package harness

import (
	"strings"
	"sync"
	"testing"
	"time"

	"saber/internal/engine"
)

// runClean executes the config and fails the test on any invariant
// violation, logging the counters and the seed needed to reproduce.
func runClean(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if err := rep.Err(); err != nil {
		t.Fatalf("invariants violated (reproduce with -harness.seed=%d):\n%v", rep.Seed, err)
	}
	if rep.TasksCreated != rep.Drained {
		t.Fatalf("exactly-once drain: %d tasks created, %d drained", rep.TasksCreated, rep.Drained)
	}
	return rep
}

// scale picks the tuple count for -short versus full runs.
func scale(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestPassthroughWrapHeavy floods a deliberately tiny input ring so the
// stream wraps it many times over while workers read and release
// concurrently; the identity workload proves byte-exact conservation.
func TestPassthroughWrapHeavy(t *testing.T) {
	rep := runClean(t, Config{
		Seed:     Seed(101),
		Workload: WorkloadPassthrough,
		Tuples:   scale(30000, 120000),
		Engine:   engine.Config{CPUWorkers: 8, TaskSize: 1024, InputBufferSize: 1 << 14},
	})
	if rep.RingWraps == 0 {
		t.Fatal("stress run never wrapped the input ring; configuration too tame")
	}
	if rep.TuplesOut != rep.TuplesIn {
		t.Fatalf("conservation: %d tuples out of %d in", rep.TuplesOut, rep.TuplesIn)
	}
}

// TestJitterFillsResultWindow runs the jittered identity workload
// against the smallest legal result window, so a straggler at the drain
// frontier fills the window and the dispatcher must hold its next cut
// until the frontier moves; the poller checks every sweep that no task
// is cut past the window.
func TestJitterFillsResultWindow(t *testing.T) {
	rep := runClean(t, Config{
		Seed:      Seed(202),
		Workload:  WorkloadJitter,
		Tuples:    scale(8000, 30000),
		Engine:    engine.Config{CPUWorkers: 2, TaskSize: 1024, ResultSlots: 4},
		MaxJitter: 2 * time.Millisecond,
	})
	if rep.WindowWaits == 0 {
		t.Fatal("stress run never filled the result window; configuration too tame")
	}
	if rep.RingWraps == 0 {
		t.Fatal("stress run never wrapped the input ring; configuration too tame")
	}
}

// TestHybridBackendFlips runs the jittered workload over both processor
// classes with a small switch threshold: HLS must keep flipping the
// backend mid-stream without losing or duplicating a single tuple. The
// device starts preferred on a seeded rate that its own completions
// unlearn, so the preference itself flips to the CPU mid-stream too.
func TestHybridBackendFlips(t *testing.T) {
	rep := runClean(t, Config{
		Seed:      Seed(303),
		Workload:  WorkloadJitter,
		Tuples:    scale(8000, 30000),
		Engine:    engine.Config{CPUWorkers: 4, TaskSize: 1024, ResultSlots: 8, SwitchThreshold: 3},
		GPU:       true,
		GPURate:   1e9,
		MaxJitter: time.Millisecond,
	})
	if rep.TasksCPU == 0 || rep.TasksGPU == 0 {
		t.Fatalf("both backends should execute tasks: cpu=%d gpu=%d", rep.TasksCPU, rep.TasksGPU)
	}
	if rep.BackendFlips == 0 {
		t.Fatal("HLS never flipped backends; configuration too tame")
	}
}

// TestAggConservationMultiQuery feeds several concurrent aggregation
// queries: the tumbling COUNT(*) totals must account for every input
// tuple exactly once, per query, under cross-query scheduling pressure.
func TestAggConservationMultiQuery(t *testing.T) {
	rep := runClean(t, Config{
		Seed:     Seed(404),
		Workload: WorkloadAgg,
		Tuples:   scale(20000, 60000),
		Queries:  3,
		Engine:   engine.Config{CPUWorkers: 8, TaskSize: 1024},
	})
	if rep.TuplesOut == 0 {
		t.Fatal("aggregation emitted no windows")
	}
}

// TestSeedDeterminism re-runs the same seed and asserts the load profile
// is identical — the property that makes -harness.seed reproduction
// work. (Scheduling-dependent counters like window waits are
// legitimately nondeterministic and not compared.)
func TestSeedDeterminism(t *testing.T) {
	cfg := Config{
		Seed:     Seed(505),
		Workload: WorkloadPassthrough,
		Tuples:   scale(5000, 20000),
		Engine:   engine.Config{CPUWorkers: 4},
	}
	a := runClean(t, cfg)
	b := runClean(t, cfg)
	if a.TasksCreated != b.TasksCreated || a.TuplesOut != b.TuplesOut {
		t.Fatalf("same seed, different load: %s vs %s", a, b)
	}
}

// mutateOnce wraps a chunk rewriter so it fires on the first chunk with
// at least two tuples and passes everything else through unchanged.
func mutateOnce(rewrite func(chunk []byte)) func([]byte) []byte {
	var mu sync.Mutex
	done := false
	tsz := StreamSchema.TupleSize()
	return func(rows []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if done || len(rows) < 2*tsz {
			return rows
		}
		done = true
		c := append([]byte(nil), rows...)
		rewrite(c)
		return c
	}
}

// moveCount moves one unit of count from the first aggregate window to
// the next, whichever chunks they arrive in: the sum over all windows is
// unchanged, so only a checker that knows each window's own count sees
// it.
func moveCount() func([]byte) []byte {
	q, err := buildQuery(Config{Workload: WorkloadAgg, WindowSize: 64}, "agg")
	if err != nil {
		panic(err)
	}
	out := q.OutputSchema()
	osz := out.TupleSize()
	var mu sync.Mutex
	moved := 0
	return func(rows []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if moved == 2 || len(rows) < osz {
			return rows
		}
		c := append([]byte(nil), rows...)
		for i := 0; i+osz <= len(c) && moved < 2; i += osz {
			out.WriteInt64(c[i:i+osz], 1, out.ReadInt64(c[i:i+osz], 1)+int64(2*moved-1))
			moved++
		}
		return c
	}
}

// dropRecovered passes the first chunk (a crash run's committed prefix)
// through and drops the first tuple of the next non-empty one, which the
// recovered engine emitted.
func dropRecovered() func([]byte) []byte {
	var mu sync.Mutex
	seen, dropped := 0, false
	return func(rows []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		tsz := StreamSchema.TupleSize()
		seen++
		if seen == 1 || dropped || len(rows) < tsz {
			return rows
		}
		dropped = true
		return rows[tsz:]
	}
}

// TestInvariantsCatchInjectedBugs is the harness's mutation self-check:
// deliberately injected output bugs — a reorder, a corruption, a drop, a
// count moved between aggregate windows, a tuple lost after crash
// recovery — must each trip the corresponding invariant. A harness whose detectors
// cannot see planted bugs guards nothing.
func TestInvariantsCatchInjectedBugs(t *testing.T) {
	tsz := StreamSchema.TupleSize()
	cases := []struct {
		name     string
		workload string
		crash    *CrashPhase
		mutate   func([]byte) []byte
		want     string
	}{
		{
			name: "reorder",
			mutate: mutateOnce(func(c []byte) {
				// Swap the first two tuples: simulates a result stage
				// draining slots out of task order.
				tmp := append([]byte(nil), c[:tsz]...)
				copy(c[:tsz], c[tsz:2*tsz])
				copy(c[tsz:2*tsz], tmp)
			}),
			want: "seq",
		},
		{
			name: "corruption",
			mutate: mutateOnce(func(c []byte) {
				// Flip one payload byte: simulates a torn read off a
				// wrapped or prematurely released ring region.
				c[StreamSchema.Offset(2)] ^= 0x40
			}),
			want: "checksum",
		},
		{
			name: "drop",
			mutate: mutateOnce(func(c []byte) {
				// Overwrite the second tuple with the first: one tuple
				// duplicated, one lost, as a double-drained slot would.
				copy(c[tsz:2*tsz], c[:tsz])
			}),
			want: "seq",
		},
		{
			// One count moved between adjacent windows: the total stays
			// the number of input tuples.
			name:     "agg-count-moved",
			workload: WorkloadAgg,
			mutate:   moveCount(),
			want:     "count",
		},
		{
			// One tuple lost after recovery from a crash.
			name:   "crash-recovered-drop",
			crash:  &CrashPhase{},
			mutate: dropRecovered(),
			want:   "seq",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(Config{
				Seed:         Seed(606),
				Workload:     tc.workload,
				Tuples:       scale(3000, 10000),
				Engine:       engine.Config{CPUWorkers: 4},
				MutateOutput: tc.mutate,
				Crash:        tc.crash,
			})
			if err != nil {
				t.Fatal(err)
			}
			verr := rep.Err()
			if verr == nil {
				t.Fatalf("injected %s bug went undetected: %s", tc.name, rep)
			}
			if !strings.Contains(verr.Error(), tc.want) {
				t.Fatalf("injected %s bug reported without %q:\n%v", tc.name, tc.want, verr)
			}
			t.Logf("caught as intended: %.200s ...", verr.Error())
		})
	}
}
