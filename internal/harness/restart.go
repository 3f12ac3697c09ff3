package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"saber/internal/engine"
	"saber/internal/fault"
	"saber/internal/ingest"
)

// RestartConfig tunes one crash-restart differential run: a reference
// engine processes the whole stream uninterrupted, a second engine is
// killed mid-stream (Close without Drain — queued tasks and buffered
// input are abandoned, exactly like a process crash destroys them) after
// cutting checkpoints, and a third engine restores from disk and
// processes the remainder. Exactly-once restart means the committed
// prefix plus the post-recovery output is byte-identical to the
// reference.
type RestartConfig struct {
	// Seed drives the stream payloads, the chunk schedule and the kill
	// point.
	Seed int64
	// Workload: WorkloadPassthrough (default), WorkloadAgg or
	// WorkloadAggTime. All three have deterministic output bytes, which
	// the differential requires (grouped aggregation does not: its row
	// order depends on hash-table layout).
	Workload string
	// Tuples is the stream length. Default 40000.
	Tuples int
	// Engine configures all three engines, as in Config, except that the
	// runner owns the checkpoint fields. Defaults: CPUWorkers 4, TaskSize
	// 1024, InputBufferSize 1<<15, and MaxTaskRetries 6 under Chaos,
	// keeping the retry budget above any plausible failure streak so
	// nothing quarantines. Overload arms the admission-control/shedding
	// layer; the differential requires that the policy never actuates (a
	// shed tuple voids byte identity), so configs set a budget the run
	// cannot exhaust: the point is proving the armed layer is inert on a
	// healthy pipeline and its ledger counters survive the restore.
	Engine engine.Config
	// WindowSize as in Config.
	WindowSize int64
	// InsertMaxTuples bounds the seeded chunk size. Default 300.
	InsertMaxTuples int
	// CheckpointEveryChunks cuts an epoch after every N feed chunks.
	// Default 6.
	CheckpointEveryChunks int
	// KillChunk is the chunk index after which the engine is killed; 0
	// derives a seeded kill point past the first checkpoint.
	KillChunk int
	// Quiesce waits for the engine to fully drain before each
	// checkpoint, making the epoch barrier (and therefore the committed
	// prefix and resume cursor) a pure function of the seed — the
	// determinism differential needs that; the byte-identity
	// differential deliberately runs without it, checkpointing against a
	// moving frontier.
	Quiesce bool
	// Ingest feeds over TCP loopback with the resume protocol: the
	// server is greeted back to the checkpoint cursor after the restart
	// and the reconnecting client replays the lost suffix from its
	// replay window.
	Ingest bool
	// Chaos arms seeded fault injection (plan-execution errors, ingest
	// drops) on the engines.
	Chaos *fault.Injector
	// Dir is the checkpoint directory; empty creates (and removes) a
	// temporary one.
	Dir string
}

func (c RestartConfig) withDefaults() RestartConfig {
	if c.Workload == "" {
		c.Workload = WorkloadPassthrough
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tuples <= 0 {
		c.Tuples = 40000
	}
	c.Engine = harnessEngine(c.Engine, 1024, 1<<15, c.Chaos)
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.InsertMaxTuples <= 0 {
		c.InsertMaxTuples = 300
	}
	if c.CheckpointEveryChunks <= 0 {
		c.CheckpointEveryChunks = 6
	}
	if c.Chaos != nil && c.Engine.MaxTaskRetries == 0 {
		c.Engine.MaxTaskRetries = 6
	}
	return c
}

// RestartReport is the crash-restart differential's evidence.
type RestartReport struct {
	Seed      int64
	Chunks    int // chunks in the full stream schedule
	KillChunk int // chunk after which the crash engine died
	// Epochs is how many checkpoints the crash engine cut.
	Epochs int64
	// CommittedBytes is the exactly-once output cutoff at the crash;
	// ResumeCursor the tuple index recovery resumed the feed from.
	CommittedBytes int64
	ResumeCursor   int64
	// PreBytes/PostBytes/RefBytes are output sizes: committed prefix,
	// post-recovery, and uninterrupted reference.
	PreBytes, PostBytes, RefBytes int
	// RingWraps counts input-ring wraps across the recovery engine (>0
	// proves the rebased ring really wrapped mid-recovery when the
	// config targets that).
	RingWraps int64
	// Quarantined must be 0: shed tuples would break the differential.
	Quarantined int64
	// Shed must be 0 for the same reason: an armed overload policy that
	// actuates mid-differential voids byte identity.
	Shed int64
	// Retried / FaultsInjected / Reconnects / Resends are chaos and
	// ingest evidence.
	Retried        int64
	FaultsInjected int64
	Reconnects     int64
	Resends        int64
	Violations     []error
}

// Err joins the violations, nil when the differential held.
func (r *RestartReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("restart(seed=%d): %w", r.Seed, errors.Join(r.Violations...))
}

// String summarises the run.
func (r *RestartReport) String() string {
	return fmt.Sprintf(
		"seed=%d chunks=%d kill=%d epochs=%d committed=%d cursor=%d pre=%d post=%d ref=%d wraps=%d retried=%d injected=%d reconnects=%d resends=%d violations=%d",
		r.Seed, r.Chunks, r.KillChunk, r.Epochs, r.CommittedBytes, r.ResumeCursor,
		r.PreBytes, r.PostBytes, r.RefBytes, r.RingWraps, r.Retried, r.FaultsInjected,
		r.Reconnects, r.Resends, len(r.Violations))
}

// outCollector buffers a query's ordered output.
type outCollector struct {
	mu  sync.Mutex
	buf []byte
}

func (c *outCollector) sink(rows []byte) {
	c.mu.Lock()
	c.buf = append(c.buf, rows...)
	c.mu.Unlock()
}

func (c *outCollector) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}

// restartEngine builds one engine + query + collector for the run.
func restartEngine(cfg RestartConfig, dir string) (*engine.Engine, *engine.Handle, *outCollector, error) {
	q, err := buildQuery(Config{Workload: cfg.Workload, WindowSize: cfg.WindowSize, Seed: cfg.Seed}, "restart")
	if err != nil {
		return nil, nil, nil, err
	}
	ecfg := cfg.Engine
	ecfg.CheckpointDir = dir
	ecfg.CheckpointInterval = -1 // the runner cuts epochs at seeded chunk counts
	eng := engine.New(ecfg)
	h, err := eng.Register(q)
	if err != nil {
		return nil, nil, nil, err
	}
	out := &outCollector{}
	h.OnResult(out.sink)
	return eng, h, out, nil
}

// chunkSchedule precomputes the seeded tuple-aligned feed chunks as
// [start, end) byte offsets, so the crash run and the reference feed the
// exact same frames.
func chunkSchedule(cfg RestartConfig, streamLen int) [][2]int {
	tsz := StreamSchema.TupleSize()
	rnd := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	var out [][2]int
	for off := 0; off < streamLen; {
		n := (1 + rnd.Intn(cfg.InsertMaxTuples)) * tsz
		if off+n > streamLen {
			n = streamLen - off
		}
		out = append(out, [2]int{off, off + n})
		off += n
	}
	return out
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

// RunCrashRestart executes the crash-restart differential. It returns an
// error only for configuration mistakes; differential failures land in
// RestartReport.Violations.
func RunCrashRestart(cfg RestartConfig) (*RestartReport, error) {
	cfg = cfg.withDefaults()
	rep := &RestartReport{Seed: cfg.Seed}

	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "ckpt-restart-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	tsz := StreamSchema.TupleSize()
	stream, _ := genStream(cfg.Tuples, cfg.Seed)
	chunks := chunkSchedule(cfg, len(stream))
	rep.Chunks = len(chunks)

	kill := cfg.KillChunk
	if kill <= 0 {
		// Seeded kill point strictly past the first checkpoint and before
		// the stream's end, so there is both state to recover and a
		// suffix left to process.
		lo := cfg.CheckpointEveryChunks + 1
		hi := len(chunks) - 1
		if hi <= lo {
			return nil, fmt.Errorf("harness: stream too short for a crash point (%d chunks, checkpoint every %d)",
				len(chunks), cfg.CheckpointEveryChunks)
		}
		rnd := rand.New(rand.NewSource(cfg.Seed ^ 0x6b11))
		kill = lo + rnd.Intn(hi-lo)
	}
	rep.KillChunk = kill

	// Reference: the same frames, uninterrupted, no checkpointing.
	refEng, refH, refOut, err := restartEngine(cfg, "")
	if err != nil {
		return nil, err
	}
	if err := refEng.Start(); err != nil {
		return nil, err
	}
	for _, c := range chunks {
		refH.Insert(stream[c[0]:c[1]])
	}
	refEng.Drain()
	refEng.Close()
	ref := refOut.bytes()
	rep.RefBytes = len(ref)

	// Crash run: feed chunks [0, kill), checkpointing along the way,
	// then die without draining.
	engA, hA, outA, err := restartEngine(cfg, dir)
	if err != nil {
		return nil, err
	}
	if err := engA.Start(); err != nil {
		return nil, err
	}

	var send func([]byte) error
	var rc *ingest.ReconnectClient
	var srv *ingest.Server
	if cfg.Ingest {
		srv, err = ingest.Listen("127.0.0.1:0", hA, tsz)
		if err != nil {
			return nil, err
		}
		srv.EnableResume(0)
		srv.SetReadTimeout(time.Second)
		go func() { _ = srv.Serve() }()
		rc, err = ingest.DialReconnect(srv.Addr().String(), ingest.ReconnectConfig{
			Seed:      cfg.Seed,
			Resume:    true,
			TupleSize: tsz,
			Fault:     cfg.Chaos,
		})
		if err != nil {
			return nil, err
		}
		send = rc.Send
	} else {
		send = func(data []byte) error { hA.Insert(data); return nil }
	}

	for i := 0; i < kill; i++ {
		if err := send(stream[chunks[i][0]:chunks[i][1]]); err != nil {
			return nil, fmt.Errorf("harness: pre-crash feed: %w", err)
		}
		if (i+1)%cfg.CheckpointEveryChunks == 0 {
			if cfg.Quiesce {
				if cfg.Ingest {
					// Wait for in-flight frames to reach the engine before
					// the drain barrier can mean anything.
					waitIngested(srv, int64(chunks[i][1]/tsz))
				}
				if err := quiesce(hA); err != nil {
					return nil, err
				}
			}
			if _, err := engA.Checkpoint(); err != nil {
				return nil, fmt.Errorf("harness: checkpoint: %w", err)
			}
		}
	}
	// Crash: stop the ingest front end, then kill the engine with work
	// still in flight. No Drain, no final checkpoint.
	if srv != nil {
		srv.Close()
	}
	engA.Close()
	rep.Epochs = engA.Metrics().Snapshot().Counters["saber.ckpt.epochs"]
	committed := hA.Committed()
	rep.CommittedBytes = committed
	pre := outA.bytes()
	if committed > int64(len(pre)) {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("committed %d bytes but the sink only saw %d", committed, len(pre)))
		return rep, nil
	}
	prefix := pre[:committed]
	rep.PreBytes = len(prefix)
	if int64(len(ref)) < committed || !bytes.Equal(prefix, ref[:committed]) {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("committed prefix (%d bytes) diverges from the reference", committed))
	}

	// Recovery: fresh engine, restore from disk, resume the feed at the
	// checkpoint cursor, finish the stream.
	engB, hB, outB, err := restartEngine(cfg, dir)
	if err != nil {
		return nil, err
	}
	if _, err := engB.Restore(dir); err != nil {
		rep.Violations = append(rep.Violations, fmt.Errorf("restore: %w", err))
		return rep, nil
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
		return rep, nil
	}
	if err := engB.Start(); err != nil {
		return nil, err
	}
	if cfg.Ingest {
		// Restart the server on the same address, greeting with the
		// restored cursor; the surviving client replays the gap from its
		// window and pushes on.
		srvB, err := ingest.Listen(srv.Addr().String(), hB, tsz)
		if err != nil {
			return nil, err
		}
		srvB.EnableResume(cursor)
		srvB.SetReadTimeout(time.Second)
		go func() { _ = srvB.Serve() }()
		for i := kill; i < len(chunks); i++ {
			if err := rc.Send(stream[chunks[i][0]:chunks[i][1]]); err != nil {
				return nil, fmt.Errorf("harness: post-recovery feed: %w", err)
			}
		}
		rep.Reconnects = rc.Reconnects()
		rep.Resends = rc.Resends()
		rc.Close()
		srvB.Close() // drains in-flight frames into the engine
	} else {
		// Direct mode replays from the cursor with fresh seeded chunking:
		// the stitched output must not depend on how the replay is cut.
		rnd := rand.New(rand.NewSource(cfg.Seed ^ 0x7e57))
		for off := cursor * int64(tsz); off < int64(len(stream)); {
			n := int64((1 + rnd.Intn(cfg.InsertMaxTuples)) * tsz)
			if off+n > int64(len(stream)) {
				n = int64(len(stream)) - off
			}
			hB.Insert(stream[off : off+n])
			off += n
		}
	}
	engB.Drain()
	for _, c := range engB.Invariants() {
		if err := c.CheckInvariants(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Errorf("%s: %w", c.InvariantName(), err))
		}
	}
	engB.Close()

	post := outB.bytes()
	rep.PostBytes = len(post)
	d := hB.Debug()
	for _, w := range d.RingWraps {
		rep.RingWraps += w
	}
	stA, stB := hA.Stats(), hB.Stats()
	rep.Quarantined = stA.TasksQuarantined + stB.TasksQuarantined
	rep.Retried = stA.TasksRetried + stB.TasksRetried
	rep.Shed = stA.TuplesShed + stA.TuplesShedAdmit + stB.TuplesShed + stB.TuplesShedAdmit
	if cfg.Chaos != nil {
		rep.FaultsInjected = cfg.Chaos.TotalInjections()
	}
	if rep.Quarantined != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("%d tasks quarantined — shed tuples void the differential", rep.Quarantined))
	}
	if rep.Shed != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Errorf("%d tuples shed — an overload policy actuated mid-differential", rep.Shed))
	}
	if cfg.Engine.Overload != nil {
		// The admission ledger must balance on the recovery engine at
		// quiesce even though its offered/in counters were seeded from the
		// restored snapshot: offered == in + shed-at-admission.
		if d := stB.BytesOffered - stB.BytesIn - stB.TuplesShedAdmit*int64(tsz); d != 0 {
			rep.Violations = append(rep.Violations, fmt.Errorf(
				"restored admission ledger off by %d bytes (offered %d, in %d)",
				d, stB.BytesOffered, stB.BytesIn))
		}
	}

	got := append(prefix[:len(prefix):len(prefix)], post...)
	if !bytes.Equal(got, ref) {
		rep.Violations = append(rep.Violations, fmt.Errorf(
			"stitched output (%d committed + %d recovered bytes) != reference (%d bytes), first divergence at %d",
			len(prefix), len(post), len(ref), firstByteDiff(got, ref)))
	}
	return rep, nil
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// waitIngested blocks until the resume server's cursor reaches tuples
// (all frames up to that point have been handed to the sink).
func waitIngested(srv *ingest.Server, tuples int64) {
	deadline := time.Now().Add(10 * time.Second)
	for srv.Cursor() < tuples && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// CrashRestartScenario is the chaos variant of the crash-restart
// differential: seeded plan-execution faults fire on the reference, the
// crash engine and the recovery engine alike, with the retry budget high
// enough that nothing quarantines — so exactly-once restart must hold
// even when tasks fail and retry around the epoch barrier.
func CrashRestartScenario(seed int64) RestartConfig {
	inj := fault.New(seed ^ 0xc4a5)
	inj.Arm(fault.PlanExec, fault.Spec{Rate: 0.03, Limit: 120})
	return RestartConfig{
		Seed:     seed,
		Workload: WorkloadPassthrough,
		Tuples:   30000,
		Chaos:    inj,
	}
}
