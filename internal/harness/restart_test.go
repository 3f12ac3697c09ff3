package harness

import (
	"testing"
	"time"

	"saber/internal/engine"
	"saber/internal/overload"
)

// crashRun is the crash tests' base config: a 40000-tuple stream into
// a 32 KiB ring, checkpointed every 6 feed chunks.
func crashRun(seed int64) Config {
	return Config{
		Seed:   seed,
		Tuples: 40000,
		Engine: engine.Config{InputBufferSize: 1 << 15},
		Crash:  &CrashPhase{},
	}
}

// runRestart executes a crash run and fails the test on any violation,
// logging the seed needed to reproduce.
func runRestart(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if err := rep.Err(); err != nil {
		t.Fatalf("crash run failed (reproduce with -harness.seed=%d):\n%v", rep.Seed, err)
	}
	if rep.Epochs == 0 {
		t.Fatal("no epochs cut before the crash — the run recovered nothing")
	}
	if rep.PostBytes == 0 {
		t.Fatal("no post-recovery output — the kill point left nothing to recover")
	}
	return rep
}

// TestCrashRestartPassthrough: count windows, selection output. The
// committed prefix + recovered output must be the input stream, byte
// for byte.
func TestCrashRestartPassthrough(t *testing.T) {
	runRestart(t, crashRun(Seed(21)))
}

// TestCrashRestartAggCount: tumbling count-window COUNT(*) with pending
// windows straddling the epoch barrier.
func TestCrashRestartAggCount(t *testing.T) {
	cfg := crashRun(Seed(22))
	cfg.Workload = WorkloadAgg
	runRestart(t, cfg)
}

// TestCrashRestartAggTime: time-based windows — recovery must restore
// the PrevTimestamp continuity at the barrier, or the first recovered
// task misassigns window starts.
func TestCrashRestartAggTime(t *testing.T) {
	cfg := crashRun(Seed(23))
	cfg.Workload = WorkloadAggTime
	runRestart(t, cfg)
}

// TestCrashRestartMidRingWrap: a small input ring guarantees the crash
// and the recovery both happen mid-wrap, proving the rebased ring's
// absolute addressing survives the restart.
func TestCrashRestartMidRingWrap(t *testing.T) {
	cfg := crashRun(Seed(24))
	cfg.Tuples = 60000
	cfg.Engine.InputBufferSize = 1 << 14
	rep := runRestart(t, cfg)
	if rep.RingWraps == 0 {
		t.Fatal("recovery engine never wrapped its ring — config did not exercise the wrap path")
	}
}

// TestCrashRestartIngest drives the feed over TCP with the resume
// protocol: the restarted server greets with the checkpoint cursor and
// the surviving client replays the lost suffix from its window.
func TestCrashRestartIngest(t *testing.T) {
	cfg := crashRun(Seed(25))
	cfg.Ingest = true
	rep := runRestart(t, cfg)
	if rep.IngestReconnects == 0 {
		t.Fatal("client never reconnected across the server restart")
	}
}

// TestChaosCrashRestart arms seeded plan-execution faults on the crashed
// and the recovered engine: exactly-once restart must hold even when tasks fail
// and retry around the epoch barrier.
func TestChaosCrashRestart(t *testing.T) {
	rep := runRestart(t, CrashRestartScenario(Seed(26)))
	if rep.FaultsInjected == 0 {
		t.Fatal("chaos scenario injected nothing")
	}
	if rep.TasksRetried == 0 {
		t.Fatal("faults injected but no task retried")
	}
}

// TestCrashRestartOverloadArmed runs a crash with the full overload
// layer armed — budget, oldest-first policy, tight bounded wait — but a
// budget the stream cannot exhaust. The armed layer must be inert on a
// healthy pipeline (zero tuples shed, so the oracle demands the whole
// stream) and its admission-ledger counters must survive the restore:
// offered == in + shed on the recovery engine at quiesce.
func TestCrashRestartOverloadArmed(t *testing.T) {
	cfg := crashRun(Seed(28))
	cfg.Engine.Overload = &overload.Config{
		MaxQueueBytes: 64 << 20,
		Policy:        overload.ShedOldest,
		MaxWait:       200 * time.Microsecond,
	}
	rep := runRestart(t, cfg)
	if rep.TuplesShed+rep.TuplesShedAdmit != 0 {
		t.Fatalf("overload policy actuated on a healthy crash run: %s", rep)
	}
}

// TestCrashRestartDeterminism: with Quiesce, the epoch barrier is a pure
// function of the seed — two runs with the same seed must kill at the
// same chunk, commit the same prefix and resume from the same cursor.
func TestCrashRestartDeterminism(t *testing.T) {
	cfg := crashRun(Seed(27))
	cfg.Crash.Quiesce = true
	a := runRestart(t, cfg)
	b := runRestart(t, cfg)
	if a.KillChunk != b.KillChunk || a.CommittedBytes != b.CommittedBytes ||
		a.ResumeCursor != b.ResumeCursor || a.Epochs != b.Epochs ||
		a.PreBytes != b.PreBytes || a.PostBytes != b.PostBytes {
		t.Fatalf("same seed, different recovery:\n  a: %s\n  b: %s", a, b)
	}
}
