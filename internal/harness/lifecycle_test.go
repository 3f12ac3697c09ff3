package harness

import (
	"strings"
	"testing"

	"saber/internal/engine"
)

// churnRun is the churn tests' config: a 60000-tuple source at 300000
// tuples/s, three base streams and four churn rounds, on 4 KiB tasks
// and 16 MiB rings.
func churnRun(seed int64, leakSlot bool) Config {
	return Config{
		Seed:   seed,
		Tuples: 60000,
		Engine: engine.Config{TaskSize: 4096, InputBufferSize: 16 << 20},
		Churn:  &ChurnPhase{LeakSlot: leakSlot},
	}
}

// TestDynamicLifecycleStress churns a catalog-managed engine through
// live DDL — streams created, paused, resumed and dropped while a paced
// generator source streams — and demands exact per-query conservation
// for every stream that ever existed: the survivors replayed the full
// bounded source and emitted every admitted tuple, the dropped ones
// balance their ledgers at the drop boundary.
func TestDynamicLifecycleStress(t *testing.T) {
	rep, err := Run(churnRun(Seed(11001), false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if verr := rep.Err(); verr != nil {
		t.Fatal(verr)
	}
	if rep.StreamsCreated == 0 || rep.StreamsDropped == 0 || rep.Pauses == 0 {
		t.Fatalf("churn never happened: %s", rep)
	}
	if rep.TuplesOut == 0 {
		t.Fatalf("no output observed: %s", rep)
	}
}

// TestLifecycleMutationDetectsLeakedSlot is the scenario's self-test: a
// result slot marked full behind the drainer's back — a leak the engine
// itself will never produce — must be flagged by the per-stream quiesce
// check. A lifecycle checker that cannot see a planted leak guards
// nothing.
func TestLifecycleMutationDetectsLeakedSlot(t *testing.T) {
	rep, err := Run(churnRun(Seed(11002), true))
	if err != nil {
		t.Fatal(err)
	}
	verr := rep.Err()
	if verr == nil {
		t.Fatalf("leaked result slot went undetected: %s", rep)
	}
	if !strings.Contains(verr.Error(), "still full") {
		t.Fatalf("leak reported without the slot verdict: %v", verr)
	}
	t.Logf("caught as intended: %v", verr)
}

// TestChurnRefusesFeedFields: the churn phase's queries and source come
// from its catalog script, so a Config field that would shape the
// workload feed is refused rather than silently ignored.
func TestChurnRefusesFeedFields(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"workload": func(c *Config) { c.Workload = WorkloadAgg },
		"queries":  func(c *Config) { c.Queries = 2 },
		"gpu":      func(c *Config) { c.GPU = true },
		"ingest":   func(c *Config) { c.Ingest = true },
		"mutate":   func(c *Config) { c.MutateOutput = func(b []byte) []byte { return b } },
		"crash":    func(c *Config) { c.Crash = &CrashPhase{} },
	} {
		cfg := churnRun(1, false)
		set(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: churn run accepted a field it ignores", name)
		}
	}
}
