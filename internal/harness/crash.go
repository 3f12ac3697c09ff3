package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/engine"
	"saber/internal/fault"
	"saber/internal/ingest"
)

// CrashPhase kills the engine mid-stream and recovers: the first engine
// cuts checkpoints while it is fed, then dies after a seeded chunk (Close
// without Drain — queued tasks and buffered input are abandoned, exactly
// like a process crash destroys them); a second engine restores from
// disk and finishes the stream from the checkpoint's input cursor. The
// crashed engine's output up to its committed cutoff, then the recovered
// engine's output, go through the query's stream oracle as one stream:
// exactly-once restart means the stitched stream is the oracle's
// expected output.
type CrashPhase struct {
	// Quiesce waits for the engine to fully drain before each
	// checkpoint, making the epoch barrier (and therefore the committed
	// prefix and resume cursor) a pure function of the seed. Without it
	// the run checkpoints against a moving frontier.
	Quiesce bool
}

// checkpointEveryChunks is the crash phase's epoch cadence: the crashed
// engine cuts a checkpoint after every this many feed chunks, and is
// killed at a seeded chunk past the first one.
const checkpointEveryChunks = 6

// runCrash runs the crash phase for the run's one query. With Ingest
// the feed goes over TCP loopback with the resume protocol: the
// restarted server greets the surviving client with the checkpoint
// cursor and the client replays the lost suffix from its window.
func runCrash(cfg Config, runs []*queryRun, rep *Report) error {
	switch {
	case len(runs) != 1:
		return fmt.Errorf("harness: a crash run has one query, not %d", len(runs))
	case cfg.PacedRate != nil:
		return errors.New("harness: a crash run feeds unpaced")
	}
	dir, err := os.MkdirTemp("", "ckpt-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ecfg := cfg.Engine
	ecfg.CheckpointDir = dir
	ecfg.CheckpointInterval = -1 // the runner cuts epochs at seeded chunk counts

	qr := runs[0]
	tsz := StreamSchema.TupleSize()
	stream := qr.stream
	chunks := chunkSchedule(cfg.Seed^0x5eed, len(stream))
	// Seeded kill point strictly past the first checkpoint and before the
	// stream's end, so there is both state to recover and a suffix left
	// to process.
	lo, hi := checkpointEveryChunks+1, len(chunks)-1
	if hi <= lo {
		return fmt.Errorf("harness: stream too short for a crash point (%d chunks, checkpoint every %d)",
			len(chunks), checkpointEveryChunks)
	}
	kill := lo + rand.New(rand.NewSource(cfg.Seed^0x6b11)).Intn(hi-lo)
	rep.KillChunk = kill

	// Crash run: feed chunks [0, kill), checkpointing along the way,
	// then die without draining.
	var preMu sync.Mutex
	var pre []byte
	a, err := build(ecfg, runs, func(*queryRun) func([]byte) {
		return func(rows []byte) {
			preMu.Lock()
			pre = append(pre, rows...)
			preMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	hA := a.handles[0]
	if err := a.start(cfg); err != nil {
		return err
	}
	stopPoll := poll(a.eng.Invariants(), &rep.InvariantChecks)
	send := func(data []byte) error { hA.Insert(data); return nil }
	var srv *ingest.Server
	var rc *ingest.ReconnectClient
	if cfg.Ingest {
		if srv, err = listen("127.0.0.1:0", cfg, a.eng, hA, 0, 0); err != nil {
			return err
		}
		if rc, err = dial(srv, cfg, 0, true); err != nil {
			return err
		}
		defer rc.Close()
		send = rc.Send
	}
	for i := 0; i < kill; i++ {
		if err := send(stream[chunks[i][0]:chunks[i][1]]); err != nil {
			return fmt.Errorf("harness: pre-crash feed: %w", err)
		}
		if (i+1)%checkpointEveryChunks != 0 {
			continue
		}
		if cfg.Crash.Quiesce {
			if srv != nil {
				// Wait for in-flight frames to reach the engine before
				// the drain barrier can mean anything.
				waitIngested(srv, int64(chunks[i][1]/tsz))
			}
			if err := quiesce(hA); err != nil {
				return err
			}
		}
		if _, err := a.eng.Checkpoint(); err != nil {
			return fmt.Errorf("harness: checkpoint: %w", err)
		}
	}
	// Crash: stop the ingest front end, then kill the engine with work
	// still in flight. No Drain, no final checkpoint.
	if srv != nil {
		srv.Close()
	}
	rep.Violations = append(rep.Violations, stopPoll()...)
	a.eng.Close()
	addShed(rep, hA.Stats())
	rep.Epochs = a.eng.Metrics().Snapshot().Counters["saber.ckpt.epochs"]
	committed := hA.Committed()
	rep.CommittedBytes = committed
	if committed > int64(len(pre)) {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("committed %d bytes but the sink only saw %d", committed, len(pre)))
		return nil
	}
	rep.PreBytes = committed
	qr.consume(pre[:committed])

	// Recovery: fresh engine, restore from disk, resume the feed at the
	// checkpoint cursor, finish the stream.
	var post atomic.Int64
	b, err := build(ecfg, runs, func(qr *queryRun) func([]byte) {
		return func(rows []byte) {
			post.Add(int64(len(rows)))
			qr.consume(rows)
		}
	})
	if err != nil {
		return err
	}
	hB := b.handles[0]
	if _, err := b.eng.Restore(dir); err != nil {
		rep.Violations = append(rep.Violations, fmt.Errorf("restore: %w", err))
		return nil
	}
	if got := hB.Committed(); got != committed {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("restored Committed %d, crash engine committed %d", got, committed))
	}
	cursor := hB.InputCursor(0)
	rep.ResumeCursor = cursor
	if cursor < 0 || cursor*int64(tsz) > int64(chunks[kill-1][1]) {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("resume cursor %d outside the fed range", cursor))
		return nil
	}
	if err := b.start(cfg); err != nil {
		return err
	}
	stopPoll = poll(b.eng.Invariants(), &rep.InvariantChecks)
	if rc != nil {
		// Restart the server on the same address, greeting with the
		// restored cursor; the surviving client replays the gap from its
		// window and pushes on.
		srvB, err := listen(srv.Addr().String(), cfg, b.eng, hB, 0, cursor)
		if err != nil {
			return err
		}
		for _, c := range chunks[kill:] {
			if err := rc.Send(stream[c[0]:c[1]]); err != nil {
				return fmt.Errorf("harness: post-recovery feed: %w", err)
			}
		}
		rep.IngestReconnects = rc.Reconnects()
		rep.IngestResends = rc.Resends()
		rc.Close()
		srvB.Close() // drains in-flight frames into the engine
	} else {
		// Direct mode replays from the cursor with fresh seeded chunking:
		// the stitched output must not depend on how the replay is cut.
		rest := stream[cursor*int64(tsz):]
		for _, c := range chunkSchedule(cfg.Seed^0x7e57, len(rest)) {
			hB.Insert(rest[c[0]:c[1]])
		}
	}
	b.eng.Drain()
	rep.Violations = append(rep.Violations, stopPoll()...)
	verify(cfg, b, runs, rep)
	rep.PostBytes = post.Load()
	return nil
}

// quiesce waits until every created task has drained.
func quiesce(h *engine.Handle) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := h.Debug()
		if d.Drained >= d.TasksCreated {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce timeout: %d of %d tasks drained", d.Drained, d.TasksCreated)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitIngested blocks until the resume server's cursor reaches tuples
// (all frames up to that point have been handed to the sink).
func waitIngested(srv *ingest.Server, tuples int64) {
	deadline := time.Now().Add(10 * time.Second)
	for srv.Cursor() < tuples && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// CrashRestartScenario is the chaos variant of the crash phase: seeded
// plan-execution faults fire on the crashed and the recovered engine
// alike, with the retry budget high enough that nothing quarantines —
// so exactly-once restart must hold even when tasks fail and retry
// around the epoch barrier.
func CrashRestartScenario(seed int64) Config {
	inj := fault.New(seed ^ 0xc4a5)
	inj.Arm(fault.PlanExec, fault.Spec{Rate: 0.03, Limit: 120})
	return Config{
		Seed:     seed,
		Workload: WorkloadPassthrough,
		Tuples:   30000,
		Engine:   engine.Config{InputBufferSize: 1 << 15, MaxTaskRetries: 6},
		Chaos:    inj,
		Crash:    &CrashPhase{},
	}
}
