package harness

import (
	"testing"
	"time"

	"saber/internal/engine"
	"saber/internal/overload"
)

// runRestart executes the crash-restart differential and fails the test
// on any violation, logging the seed needed to reproduce.
func runRestart(t *testing.T, cfg RestartConfig) *RestartReport {
	t.Helper()
	rep, err := RunCrashRestart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if err := rep.Err(); err != nil {
		t.Fatalf("differential failed (reproduce with -harness.seed=%d):\n%v", rep.Seed, err)
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
// committed prefix + recovered output must be byte-identical to an
// uninterrupted run.
func TestCrashRestartPassthrough(t *testing.T) {
	runRestart(t, RestartConfig{Seed: Seed(21)})
}

// TestCrashRestartAggCount: tumbling count-window COUNT(*) with pending
// windows straddling the epoch barrier.
func TestCrashRestartAggCount(t *testing.T) {
	runRestart(t, RestartConfig{Seed: Seed(22), Workload: WorkloadAgg})
}

// TestCrashRestartAggTime: time-based windows — recovery must restore
// the PrevTimestamp continuity at the barrier, or the first recovered
// task misassigns window starts.
func TestCrashRestartAggTime(t *testing.T) {
	runRestart(t, RestartConfig{Seed: Seed(23), Workload: WorkloadAggTime})
}

// TestCrashRestartMidRingWrap: a small input ring guarantees the crash
// and the recovery both happen mid-wrap, proving the rebased ring's
// absolute addressing survives the restart.
func TestCrashRestartMidRingWrap(t *testing.T) {
	rep := runRestart(t, RestartConfig{
		Seed:   Seed(24),
		Tuples: 60000,
		Engine: engine.Config{InputBufferSize: 1 << 14},
	})
	if rep.RingWraps == 0 {
		t.Fatal("recovery engine never wrapped its ring — config did not exercise the wrap path")
	}
}

// TestCrashRestartIngest drives the feed over TCP with the resume
// protocol: the restarted server greets with the checkpoint cursor and
// the surviving client replays the lost suffix from its window.
func TestCrashRestartIngest(t *testing.T) {
	rep := runRestart(t, RestartConfig{Seed: Seed(25), Ingest: true})
	if rep.Reconnects == 0 {
		t.Fatal("client never reconnected across the server restart")
	}
}

// TestChaosCrashRestart arms seeded plan-execution faults across all
// three engines: exactly-once restart must hold even when tasks fail
// and retry around the epoch barrier.
func TestChaosCrashRestart(t *testing.T) {
	rep := runRestart(t, CrashRestartScenario(Seed(26)))
	if rep.FaultsInjected == 0 {
		t.Fatal("chaos scenario injected nothing")
	}
	if rep.Retried == 0 {
		t.Fatal("faults injected but no task retried")
	}
}

// TestCrashRestartOverloadArmed runs the byte-identity differential with
// the full overload layer armed — budget, oldest-first policy, tight
// bounded wait — but a budget the stream cannot exhaust. The armed layer
// must be inert on a healthy pipeline (zero tuples shed, or byte
// identity is void) and its admission-ledger counters must survive the
// restore: offered == in + shed on the recovery engine at quiesce.
func TestCrashRestartOverloadArmed(t *testing.T) {
	rep := runRestart(t, RestartConfig{
		Seed: Seed(28),
		Engine: engine.Config{Overload: &overload.Config{
			MaxQueueBytes: 64 << 20,
			Policy:        overload.ShedOldest,
			MaxWait:       200 * time.Microsecond,
		}},
	})
	if rep.Shed != 0 {
		t.Fatalf("overload policy actuated on a healthy differential: %s", rep)
	}
}

// TestCrashRestartDeterminism: with Quiesce, the epoch barrier is a pure
// function of the seed — two runs with the same seed must kill at the
// same chunk, commit the same prefix and resume from the same cursor.
func TestCrashRestartDeterminism(t *testing.T) {
	cfg := RestartConfig{Seed: Seed(27), Quiesce: true}
	a := runRestart(t, cfg)
	b := runRestart(t, cfg)
	if a.KillChunk != b.KillChunk || a.CommittedBytes != b.CommittedBytes ||
		a.ResumeCursor != b.ResumeCursor || a.Epochs != b.Epochs ||
		a.PreBytes != b.PreBytes || a.PostBytes != b.PostBytes {
		t.Fatalf("same seed, different recovery:\n  a: %s\n  b: %s", a, b)
	}
}
