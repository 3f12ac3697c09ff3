package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"saber/internal/ckpt"
	"saber/internal/query"
	"saber/internal/window"
)

// ckptConfig is fastConfig plus a manual-only checkpoint store: tests cut
// epochs explicitly so barriers land at reproducible places.
func ckptConfig(workers int, dir string) Config {
	cfg := fastConfig(workers)
	cfg.CheckpointDir = dir
	cfg.CheckpointInterval = -1 // manual Checkpoint calls only
	return cfg
}

// scalarAggQuery aggregates without grouping, so its output is fully
// deterministic (grouped output order depends on table layout) while
// still exercising the assembler's cross-task pending-window state.
func scalarAggQuery(t *testing.T) *query.Query {
	t.Helper()
	return query.NewBuilder("scalar-agg").
		From("S", syn, window.NewCount(200, 50)).
		Aggregate(query.Count, nil, "n").
		MustBuild()
}

// crashRestoreRoundTrip feeds part of a stream into a checkpointing
// engine, cuts epochs along the way, "crashes" it (Close without Drain),
// restores a fresh engine from disk and replays the input from the saved
// cursor. It returns committed-prefix + post-recovery output.
func crashRestoreRoundTrip(t *testing.T, mkQuery func(*testing.T) *query.Query, dir string, stream []byte, killOff int) []byte {
	t.Helper()
	tsz := syn.TupleSize()

	engA := New(ckptConfig(4, dir))
	hA, err := engA.Register(mkQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	pre := collectOutput(hA)
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	chunks := 0
	for off := 0; off < killOff; {
		n := (1 + rnd.Intn(300)) * tsz
		if off+n > killOff {
			n = killOff - off
		}
		hA.Insert(stream[off : off+n])
		off += n
		if chunks++; chunks%5 == 0 {
			if _, err := engA.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatalf("mid-stream Checkpoint: %v", err)
	}
	// Crash: no Drain — queued tasks and buffered input are abandoned.
	engA.Close()
	committed := hA.Committed()
	if committed <= 0 {
		t.Fatal("nothing committed before the crash")
	}
	pre.mu.Lock()
	preOut := append([]byte(nil), pre.buf...)
	pre.mu.Unlock()
	if int64(len(preOut)) < committed {
		t.Fatalf("sink saw %d bytes but checkpoint committed %d", len(preOut), committed)
	}

	engB := New(ckptConfig(4, dir))
	hB, err := engB.Register(mkQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	post := collectOutput(hB)
	info, err := engB.Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if info.Epoch == 0 || info.Queries != 1 {
		t.Fatalf("restore info: %+v", info)
	}
	if hB.Committed() != committed {
		t.Fatalf("restored Committed() = %d, want %d", hB.Committed(), committed)
	}
	cursor := hB.InputCursor(0)
	if cursor < 0 || cursor*int64(tsz) > int64(killOff) {
		t.Fatalf("restored cursor %d outside fed range", cursor)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	// Replay from the cursor with different chunking: task boundaries are
	// chunking-independent, so the output must not care.
	rnd2 := rand.New(rand.NewSource(23))
	for off := cursor * int64(tsz); off < int64(len(stream)); {
		n := int64((1 + rnd2.Intn(200)) * tsz)
		if off+n > int64(len(stream)) {
			n = int64(len(stream)) - off
		}
		hB.Insert(stream[off : off+n])
		off += n
	}
	engB.Drain()
	for _, c := range engB.Invariants() {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("post-restore invariant: %v", err)
		}
	}
	engB.Close()

	post.mu.Lock()
	defer post.mu.Unlock()
	return append(preOut[:committed:committed], post.buf...)
}

// TestCheckpointCrashRestoreSelection is the exactly-once contract for
// IStream output: pre-crash committed bytes + post-recovery bytes must
// equal an uninterrupted run, byte for byte.
func TestCheckpointCrashRestoreSelection(t *testing.T) {
	stream := genStream(30000, 3)
	got := crashRestoreRoundTrip(t, selQuery, t.TempDir(), stream, (len(stream)/syn.TupleSize()*2/3)*syn.TupleSize())
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched output %d bytes, reference %d bytes (first divergence at %d)",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestCheckpointCrashRestoreAggregation does the same for RStream output
// with cross-barrier pending windows (sliding count windows, so several
// windows straddle every epoch barrier).
func TestCheckpointCrashRestoreAggregation(t *testing.T) {
	stream := genStream(30000, 5)
	got := crashRestoreRoundTrip(t, scalarAggQuery, t.TempDir(), stream, (len(stream)/syn.TupleSize()*3/5)*syn.TupleSize())
	want := directRun(t, scalarAggQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched output %d bytes, reference %d bytes (first divergence at %d)",
			len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
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

// TestRestoreFallsBackPastCorruptEpoch corrupts the newest epoch on disk
// and expects recovery to settle on the previous one, surfacing the skip
// in saber.ckpt.corrupt.
func TestRestoreFallsBackPastCorruptEpoch(t *testing.T) {
	dir := t.TempDir()
	stream := genStream(8000, 7)

	engA := New(ckptConfig(4, dir))
	hA, err := engA.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	half -= half % syn.TupleSize()
	hA.Insert(stream[:half])
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hA.Insert(stream[half:])
	snap2, err := engA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	engA.Close()

	// Bit-flip the newest epoch file.
	path := filepath.Join(dir, "epoch-0000000000000002.ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	engB := New(ckptConfig(4, dir))
	if _, err := engB.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	info, err := engB.Restore(dir)
	if err != nil {
		t.Fatalf("Restore should fall back, got %v", err)
	}
	if info.Epoch != 1 || info.Skipped != 1 {
		t.Fatalf("restore info %+v, want epoch 1 with 1 skip", info)
	}
	if snap2.Epoch != 2 {
		t.Fatalf("second checkpoint numbered %d, want 2", snap2.Epoch)
	}
	if got := engB.Metrics().Snapshot().Counters["saber.ckpt.corrupt"]; got != 1 {
		t.Fatalf("saber.ckpt.corrupt = %d, want 1", got)
	}
}

// TestRestoreColdStart: an empty directory is a cold start, not an error
// class callers need to string-match.
func TestRestoreColdStart(t *testing.T) {
	dir := t.TempDir()
	eng := New(ckptConfig(2, dir))
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Restore(dir); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Restore on empty dir: %v, want ErrNoCheckpoint", err)
	}
}

// TestAutomaticCheckpointLoop: with a positive interval the coordinator
// cuts epochs on its own between Start and Close.
func TestAutomaticCheckpointLoop(t *testing.T) {
	cfg := ckptConfig(2, t.TempDir())
	cfg.CheckpointInterval = 2 * 1e6 // 2ms
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(40000, 9)
	step := 200 * syn.TupleSize()
	for off := 0; off < len(stream); off += step {
		end := off + step
		if end > len(stream) {
			end = len(stream)
		}
		h.Insert(stream[off:end])
	}
	// The coordinator runs on wall-clock ticks; wait for the first epoch
	// rather than racing Close against the ticker.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Metrics().Snapshot().Counters["saber.ckpt.epochs"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("automatic coordinator cut no epochs within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	eng.Drain()
	eng.Close()
	if eng.Metrics().Snapshot().Counters["saber.ckpt.bytes"] == 0 {
		t.Fatal("no checkpoint bytes recorded")
	}
}

// TestCheckpointMidInsertKeepsOfferedLedger cuts an epoch while an Insert
// is parked on a full ring with most of its bytes not yet admitted. Those
// bytes were neither admitted nor shed at the barrier — the feeder
// replays them from the input cursor — so the restored engine must start
// with offered == admitted + shed at admission.
func TestCheckpointMidInsertKeepsOfferedLedger(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(2, dir)
	cfg.InputBufferSize = 1 << 14
	engA := New(cfg)
	hA, err := engA.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	// Paused, the query cuts no tasks, so the ring fills and the Insert
	// parks with the rest of its data unadmitted.
	if err := engA.Pause("sel"); err != nil {
		t.Fatal(err)
	}
	stream := genStream(4*cfg.InputBufferSize/syn.TupleSize(), 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		hA.Insert(stream)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for hA.Stats().AdmitWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Insert never waited for ring space")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	engA.Close()
	<-done

	engB := New(cfg)
	hB, err := engB.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engB.Restore(dir); err != nil {
		t.Fatal(err)
	}
	st := hB.Stats()
	if shed := st.TuplesShedAdmit * int64(syn.TupleSize()); st.BytesOffered != st.BytesIn+shed {
		t.Fatalf("restored ledger: %d bytes offered != %d admitted + %d shed at admission",
			st.BytesOffered, st.BytesIn, shed)
	}
	engB.Close()
}
