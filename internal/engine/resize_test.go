package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"saber/internal/fault"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/query"
	"saber/internal/window"
)

// Differential resize tests: a run whose ϕ changes mid-stream must
// produce output byte-identical to a fixed-ϕ run. Window boundaries are
// computed from window.Context (FirstIndex, PrevTimestamp), not from
// task extents, so where the dispatcher cuts must be invisible in the
// results — these tests are the proof.

// insertResizing feeds stream in chunks, resizing ϕ between chunks on a
// deterministic seeded schedule. Returns the sizes it applied so a
// failing run logs its schedule.
func insertResizing(h *Handle, eng *Engine, stream []byte, chunks int, seed int64) []int {
	rnd := rand.New(rand.NewSource(seed))
	sizes := []int{512, 1024, 2048, 4096, 8192, 16384}
	var applied []int
	chunk := (len(stream)/chunks/syn.TupleSize() + 1) * syn.TupleSize()
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		h.Insert(stream[off:end])
		phi := sizes[rnd.Intn(len(sizes))]
		applied = append(applied, eng.SetTaskSize(phi))
	}
	return applied
}

// TestResizeMidStreamByteIdentical: a selection (ordered, no
// aggregation — every input tuple maps to at most one output tuple, so
// the comparison is bytes.Equal, no sorting) through a run that resizes
// ϕ a dozen times mid-stream.
func TestResizeMidStreamByteIdentical(t *testing.T) {
	stream := genStream(40000, 31)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)

	for _, seed := range []int64{1, 2, 3} {
		eng := New(fastConfig(4))
		h, err := eng.Register(selQuery(t))
		if err != nil {
			t.Fatal(err)
		}
		out := collectOutput(h)
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		applied := insertResizing(h, eng, stream, 12, seed)
		eng.Drain()
		eng.Close()

		if !bytes.Equal(out.buf, want) {
			t.Fatalf("seed %d: output diverged under resizes %v: got %d bytes, want %d",
				seed, applied, len(out.buf), len(want))
		}
		if err := h.CheckQuiesced(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestResizeMidStreamAggregationWindows: the window-boundary variant —
// a grouped sliding-window aggregation is the construct that breaks
// first if a resize shifted a window edge, double-counted a pane, or
// dropped one.
func TestResizeMidStreamAggregationWindows(t *testing.T) {
	stream := genStream(30000, 32)
	want := directRun(t, aggQuery(t), [2][]byte{stream, nil}, 128)
	ref := sortedRows(aggQuery(t).OutputSchema(), want)

	eng := New(fastConfig(4))
	h, err := eng.Register(aggQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	applied := insertResizing(h, eng, stream, 16, 7)
	eng.Drain()
	eng.Close()

	got := sortedRows(h.OutputSchema(), out.buf)
	if len(got) != len(ref) {
		t.Fatalf("window rows under resizes %v: got %d want %d", applied, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("window row %d diverged under resizes %v: got %s want %s",
				i, applied, got[i], ref[i])
		}
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestResizeOrderingPreserved: results must stay in task order across a
// resize — the result stage sequences on task IDs, which a resize must
// not perturb. Window timestamps from an ungrouped tumbling-count
// aggregation are strictly ordered, so any reorder shows up as a
// timestamp regression.
func TestResizeOrderingPreserved(t *testing.T) {
	q := query.NewBuilder("ord-resize").
		From("S", syn, window.NewCount(100, 100)).
		Aggregate(query.Count, nil, "n").
		MustBuild()
	eng := New(fastConfig(8))
	h, err := eng.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var firsts []int64
	osz := h.OutputSchema().TupleSize()
	sch := h.OutputSchema()
	h.OnResult(func(rows []byte) {
		mu.Lock()
		for i := 0; i+osz <= len(rows); i += osz {
			firsts = append(firsts, sch.Timestamp(rows[i:]))
		}
		mu.Unlock()
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	insertResizing(h, eng, genStream(50000, 33), 20, 9)
	eng.Drain()
	eng.Close()

	for i := 1; i < len(firsts); i++ {
		if firsts[i] < firsts[i-1] {
			t.Fatalf("window timestamps regressed after resize: %d after %d (index %d)",
				firsts[i], firsts[i-1], i)
		}
	}
}

// TestResizeConcurrentWithIngest: SetTaskSize racing Insert and the
// dispatcher — the shape the live adaptive controller produces, where
// the control loop runs beside the feed. Output must still match;
// running under -race proves the atomics hold up.
func TestResizeConcurrentWithIngest(t *testing.T) {
	stream := genStream(60000, 34)
	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)

	eng := New(fastConfig(4))
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(17))
		sizes := []int{512, 1024, 4096, 16384}
		for {
			select {
			case <-stop:
				return
			default:
				eng.SetTaskSize(sizes[rnd.Intn(len(sizes))])
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	tsz := syn.TupleSize()
	for off := 0; off < len(stream); off += 200 * tsz {
		end := off + 200*tsz
		if end > len(stream) {
			end = len(stream)
		}
		h.Insert(stream[off:end])
	}
	eng.Drain()
	close(stop)
	wg.Wait()
	eng.Close()

	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output diverged under concurrent resizes: got %d bytes, want %d",
			len(out.buf), len(want))
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestResizeDuringGPUFailover: resizes while injected GPU faults push
// tasks through the GPU→CPU failover path. Exactly-once delivery and
// byte-identical output must both survive the combination — a task cut
// at one ϕ retries on the CPU at that same extent even if ϕ has moved
// since.
func TestResizeDuringGPUFailover(t *testing.T) {
	inj := fault.New(55)
	inj.Arm(fault.GPUKernel, fault.Spec{Rate: 0.3, Limit: 200})

	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6), Fault: inj})
	defer dev.Close()

	cfg := fastConfig(4)
	cfg.GPU = dev
	eng := New(cfg)
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	preferDevice(eng)
	stream := genStream(60000, 35)
	applied := insertResizing(h, eng, stream, 15, 21)
	eng.Drain()
	eng.Close()

	want := directRun(t, selQuery(t), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output diverged under resize+failover (resizes %v): got %d bytes, want %d",
			applied, len(out.buf), len(want))
	}
	st := h.Stats()
	if inj.TotalInjections() == 0 {
		t.Fatal("no faults injected — test exercised nothing")
	}
	if st.GPUFailovers == 0 {
		t.Errorf("faults injected but no failovers: %+v", st)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

// TestSetTaskSizeClamps pins the safety clamps: below the widest
// tuple's size ϕ rises to the floor, above a quarter of the input ring
// it is capped, and the engine reports what it actually applied.
func TestSetTaskSizeClamps(t *testing.T) {
	cfg := fastConfig(1)
	cfg.InputBufferSize = 1 << 20
	eng := New(cfg)
	if _, err := eng.Register(selQuery(t)); err != nil {
		t.Fatal(err)
	}

	if got := eng.SetTaskSize(1); got < syn.TupleSize() {
		t.Fatalf("ϕ=1 clamped to %d, below tuple size %d", got, syn.TupleSize())
	}
	if got := eng.SetTaskSize(64 << 20); got != cfg.InputBufferSize/4 {
		t.Fatalf("huge ϕ clamped to %d, want ring/4 = %d", got, cfg.InputBufferSize/4)
	}
	if got, want := eng.SetTaskSize(8192), 8192; got != want {
		t.Fatalf("in-range ϕ altered: got %d want %d", got, want)
	}
	if got := eng.TaskSize(); got != 8192 {
		t.Fatalf("TaskSize() = %d after SetTaskSize(8192)", got)
	}
}
