package engine

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/overload"
	"saber/internal/query"
	"saber/internal/window"
)

// gateUDF is a passthrough operator whose every fragment blocks on gate,
// wedging the worker pool at will. Closing the gate releases everything.
func gateUDF(gate chan struct{}) *query.UDF {
	return &query.UDF{
		Name: "gate",
		Out:  syn,
		ProcessFragment: func(in [][]byte) []byte {
			<-gate
			return append([]byte(nil), in[0]...)
		},
		Merge:    func(acc, next []byte) []byte { return append(acc, next...) },
		Finalize: func(partial []byte) []byte { return partial },
	}
}

func gateQuery(gate chan struct{}) *query.Query {
	return query.NewBuilder("gate").
		From("S", syn, window.NewCount(64, 32)).
		UDF(gateUDF(gate)).
		MustBuild()
}

// waitFor polls cond for up to d.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseUnblocksBlockedInsert is the bounded-wait shutdown regression:
// an Insert blocked on backpressure (full ring, wedged worker) must not
// deadlock Close, and Close must not strand the Insert. Before admission
// became quiesce-aware this spun forever in ring.Put — the workers had
// exited, so the ring could never drain — or panicked pushing a cut onto
// the closed queue.
func TestCloseUnblocksBlockedInsert(t *testing.T) {
	gate := make(chan struct{})
	eng := New(Config{
		CPUWorkers:      1,
		TaskSize:        4096,
		InputBufferSize: 1 << 16,
		DisablePad:      true,
		Model:           model.Default(),
	})
	h, err := eng.Register(gateQuery(gate))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	// 4× the ring: the insert must block once the wedged worker stops
	// draining it.
	big := genStream(4*(1<<16)/syn.TupleSize(), 11)
	inserted := make(chan struct{})
	go func() {
		h.Insert(big)
		close(inserted)
	}()
	waitFor(t, 10*time.Second, func() bool { return h.Stats().AdmitWaits > 0 }, "Insert to block")

	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	// The blocked Insert must abort promptly — while the worker is still
	// wedged inside the UDF, so its return cannot depend on the ring
	// draining.
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert still blocked after Close: admission deadlock")
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}

	// The aborted call's ledger must balance: every offered tuple is
	// admitted or admission-shed.
	st := h.Stats()
	tsz := int64(syn.TupleSize())
	if st.BytesOffered != int64(len(big)) {
		t.Fatalf("offered %d bytes, want %d", st.BytesOffered, len(big))
	}
	if got, want := st.BytesOffered/tsz, st.BytesIn/tsz+st.TuplesShedAdmit; got != want {
		t.Fatalf("conservation: offered %d tuples != admitted %d + shed %d",
			got, st.BytesIn/tsz, st.TuplesShedAdmit)
	}
	if st.TuplesShedAdmit == 0 {
		t.Fatal("expected the aborted Insert's remainder to be accounted as admission-shed")
	}
}

// TestDrainUnblocksBlockedInsert is the Drain-side twin: Drain flags
// quiescence before taking the locks dispatchTail needs, so a
// concurrent blocked Insert aborts instead of holding insMu against it.
func TestDrainUnblocksBlockedInsert(t *testing.T) {
	gate := make(chan struct{})
	eng := New(Config{
		CPUWorkers:      1,
		TaskSize:        4096,
		InputBufferSize: 1 << 16,
		DisablePad:      true,
		Model:           model.Default(),
	})
	h, err := eng.Register(gateQuery(gate))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	big := genStream(4*(1<<16)/syn.TupleSize(), 13)
	inserted := make(chan struct{})
	go func() {
		h.Insert(big)
		close(inserted)
	}()
	waitFor(t, 10*time.Second, func() bool { return h.Stats().AdmitWaits > 0 }, "Insert to block")

	drained := make(chan struct{})
	go func() {
		eng.Drain()
		close(drained)
	}()
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert still blocked after Drain began: admission deadlock")
	}
	close(gate) // let the workers finish the admitted tasks
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
	eng.Close()
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// slowUDF is a passthrough that costs d per fragment — a deterministic
// capacity limiter for overload tests.
func slowUDF(d time.Duration) *query.UDF {
	return &query.UDF{
		Name: "slow",
		Out:  syn,
		ProcessFragment: func(in [][]byte) []byte {
			time.Sleep(d)
			return append([]byte(nil), in[0]...)
		},
		Merge:    func(acc, next []byte) []byte { return append(acc, next...) },
		Finalize: func(partial []byte) []byte { return partial },
	}
}

// TestShedOldestUnderBudget drives a slow query far past capacity with a
// small queue budget and the oldest-first policy: admission must shed
// (not block forever), the ledger must balance exactly, and the engine
// must still quiesce cleanly.
func TestShedOldestUnderBudget(t *testing.T) {
	eng := New(Config{
		CPUWorkers:      2,
		TaskSize:        4096,
		InputBufferSize: 1 << 20,
		DisablePad:      true,
		Model:           model.Default(),
		Overload: &overload.Config{
			MaxQueueBytes: 32 << 10,
			Policy:        overload.ShedOldest,
			MaxWait:       200 * time.Microsecond,
		},
	})
	q := query.NewBuilder("slow").
		From("S", syn, window.NewCount(64, 32)).
		UDF(slowUDF(500 * time.Microsecond)).
		MustBuild()
	h, err := eng.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	const total = 32768 // tuples, 1 MiB: far beyond the slow pipeline's appetite
	stream := genStream(total, 17)
	step := 2048 * syn.TupleSize()
	for off := 0; off < len(stream); off += step {
		end := off + step
		if end > len(stream) {
			end = len(stream)
		}
		h.Insert(stream[off:end])
	}
	eng.Drain()
	eng.Close()

	st := h.Stats()
	tsz := int64(syn.TupleSize())
	if st.TuplesShedOldest == 0 {
		t.Fatal("2x-overload run shed nothing: policy did not actuate")
	}
	if st.BytesOffered != int64(len(stream)) {
		t.Fatalf("offered %d, want %d", st.BytesOffered, len(stream))
	}
	// Ledger: offered == admitted + admission-shed (in tuples), and the
	// oldest-policy sheds are a subset of the gap-shed total.
	if got, want := st.BytesOffered/tsz, st.BytesIn/tsz+st.TuplesShedAdmit; got != want {
		t.Fatalf("offered %d != admitted %d + admission-shed %d", got, st.BytesIn/tsz, st.TuplesShedAdmit)
	}
	if st.TuplesShed < st.TuplesShedOldest {
		t.Fatalf("tuples.shed %d < shed.oldest %d", st.TuplesShed, st.TuplesShedOldest)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestShedOldestWhilePaused is the regression test for ShedOldest on a
// paused query that is over its queue budget. A paused query cuts no
// tasks, so ShedOldest has nothing queued to shed: the over-budget Insert
// blocks until Resume, as under ShedNone, and no MaxWait expiry cuts or
// sheds anything meanwhile. The ledger must balance and the engine must
// quiesce cleanly.
func TestShedOldestWhilePaused(t *testing.T) {
	eng := New(Config{
		CPUWorkers:      2,
		TaskSize:        4000,
		InputBufferSize: 1 << 20,
		DisablePad:      true,
		Model:           model.Default(),
		Overload: &overload.Config{
			MaxQueueBytes: 32 << 10,
			Policy:        overload.ShedOldest,
			MaxWait:       200 * time.Microsecond,
		},
	})
	h, err := eng.Register(query.NewBuilder("q").From("S", syn, window.NewCount(64, 32)).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Pause("q"); err != nil {
		t.Fatal(err)
	}

	const total = 16384 // tuples, 320 KiB: ten times the budget
	stream := genStream(total, 29)
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		step := 2048 * syn.TupleSize()
		for off := 0; off < len(stream); off += step {
			h.Insert(stream[off:min(off+step, len(stream))])
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return h.Stats().AdmitWaits > 0 }, "Insert to block")
	// 250 bounded waits: time enough for any MaxWait expiry to act.
	select {
	case <-inserted:
		t.Fatal("over-budget Insert returned while paused")
	case <-time.After(50 * time.Millisecond):
	}
	if st, d := h.Stats(), h.Debug(); d.TasksCreated != 0 || st.TuplesShed != 0 {
		t.Fatalf("paused over budget: %d tasks cut, %d tuples shed, want 0 and 0", d.TasksCreated, st.TuplesShed)
	}
	if err := eng.Resume("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert still blocked after Resume")
	}
	eng.Drain()

	st := h.Stats()
	tsz := int64(syn.TupleSize())
	if st.BytesOffered != int64(len(stream)) {
		t.Fatalf("offered %d, want %d", st.BytesOffered, len(stream))
	}
	if got, want := st.BytesOffered/tsz, st.BytesIn/tsz+st.TuplesShedAdmit; got != want {
		t.Fatalf("offered %d != admitted %d + admission-shed %d", got, st.BytesIn/tsz, st.TuplesShedAdmit)
	}
	if st.TuplesShed != st.TuplesShedOldest {
		t.Fatalf("tuples.shed %d != shed.oldest %d", st.TuplesShed, st.TuplesShedOldest)
	}
	eng.Close()
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// insertSteps inserts stream in 2048-tuple steps.
func insertSteps(h *Handle, stream []byte) {
	step := 2048 * syn.TupleSize()
	for off := 0; off < len(stream); off += step {
		h.Insert(stream[off:min(off+step, len(stream))])
	}
}

// TestShedOldestGPUOnly: ShedOldest sheds queued tasks whichever
// processor would have run them, so a GPU-only engine whose slow device
// falls behind a 32 KiB budget sheds too, with an exact ledger. A
// sibling query without a budget shares the queue; it loses nothing and
// matches the direct run byte for byte, so only the over-budget query's
// tasks were shed.
func TestShedOldestGPUOnly(t *testing.T) {
	for _, siblingTuples := range []int{0, 4096} {
		t.Run(fmt.Sprintf("sibling=%d", siblingTuples), func(t *testing.T) {
			dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(20)})
			defer dev.Close()
			eng := New(Config{
				CPUWorkers:      -1,
				GPU:             dev,
				TaskSize:        4000,
				InputBufferSize: 1 << 20,
				DisablePad:      true,
				Model:           model.Default(),
			})
			h, err := eng.RegisterWith(namedSel("capped"), RegisterOptions{Overload: &overload.Config{
				MaxQueueBytes: 32 << 10,
				Policy:        overload.ShedOldest,
				MaxWait:       200 * time.Microsecond,
			}})
			if err != nil {
				t.Fatal(err)
			}
			h.OnResult(func([]byte) {})
			free, err := eng.Register(namedSel("free"))
			if err != nil {
				t.Fatal(err)
			}
			out := collectOutput(free)
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			stream, freeStream := genStream(16384, 31), genStream(siblingTuples, 37)
			done := make(chan struct{})
			go func() {
				defer close(done)
				insertSteps(free, freeStream)
			}()
			insertSteps(h, stream)
			<-done
			eng.Drain()
			eng.Close()

			st := h.Stats()
			tsz := int64(syn.TupleSize())
			if st.TuplesShedOldest == 0 || st.TasksCPU != 0 {
				t.Fatalf("gpu-only engine over budget: shed %d tuples, ran %d tasks on the CPU, want > 0 and 0", st.TuplesShedOldest, st.TasksCPU)
			}
			if st.BytesOffered != int64(len(stream)) {
				t.Fatalf("offered %d, want %d", st.BytesOffered, len(stream))
			}
			if got, want := st.BytesOffered/tsz, st.BytesIn/tsz+st.TuplesShedAdmit; got != want {
				t.Fatalf("offered %d != admitted %d + admission-shed %d", got, st.BytesIn/tsz, st.TuplesShedAdmit)
			}
			if st.TuplesShed != st.TuplesShedOldest {
				t.Fatalf("tuples.shed %d != shed.oldest %d", st.TuplesShed, st.TuplesShedOldest)
			}
			if err := h.CheckQuiesced(); err != nil {
				t.Fatal(err)
			}
			if fs := free.Stats(); fs.TuplesShed != 0 || fs.TuplesShedAdmit != 0 {
				t.Fatalf("sibling shed: %+v", fs)
			}
			if want := directRun(t, namedSel("free"), [2][]byte{freeStream, nil}, 128); !bytes.Equal(out.buf, want) {
				t.Fatalf("sibling output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
			}
		})
	}
}

// TestTryInsertNonBlocking verifies the whole-or-nothing non-blocking
// path: rejects consume nothing and are counted; acceptance admits the
// full payload.
func TestTryInsertNonBlocking(t *testing.T) {
	gate := make(chan struct{})
	eng := New(Config{
		CPUWorkers:      1,
		TaskSize:        4096,
		InputBufferSize: 1 << 16,
		DisablePad:      true,
		Model:           model.Default(),
	})
	h, err := eng.Register(gateQuery(gate))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	fits := genStream((1<<15)/syn.TupleSize(), 19)   // half the ring
	toobig := genStream((1<<17)/syn.TupleSize(), 23) // 2x the ring: can never fit
	if !h.TryInsert(fits) {
		t.Fatal("TryInsert rejected a payload that fits an empty ring")
	}
	if h.TryInsert(toobig) {
		t.Fatal("TryInsert admitted a payload larger than the ring")
	}
	st := h.Stats()
	if st.AdmitRejects != 1 {
		t.Fatalf("admit.rejects = %d, want 1", st.AdmitRejects)
	}
	// The reject consumed nothing: offered/admitted cover only the first
	// payload.
	if st.BytesOffered != int64(len(fits)) || st.BytesIn != int64(len(fits)) {
		t.Fatalf("reject consumed data: offered %d admitted %d, want %d", st.BytesOffered, st.BytesIn, len(fits))
	}
	close(gate)
	eng.Drain()
	eng.Close()
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogDetectsStall wedges the single worker and checks the stall
// watchdog counts the episode and captures a postmortem, then recovers.
func TestWatchdogDetectsStall(t *testing.T) {
	gate := make(chan struct{})
	eng := New(Config{
		CPUWorkers:      1,
		TaskSize:        4096,
		InputBufferSize: 1 << 16,
		DisablePad:      true,
		Model:           model.Default(),
		Overload: &overload.Config{
			StallTimeout: 100 * time.Millisecond,
		},
	})
	h, err := eng.Register(gateQuery(gate))
	if err != nil {
		t.Fatal(err)
	}
	h.OnResult(func([]byte) {})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Two tasks' worth: the first wedges the worker, the rest stays
	// pending in the ring — exactly the watchdog's trigger condition.
	h.Insert(genStream(2*4096/syn.TupleSize(), 29))

	waitFor(t, 10*time.Second, func() bool {
		return eng.Metrics().Counter("saber.overload.stalls").Value() > 0
	}, "watchdog to trip")
	if eng.StallReport() == "" {
		t.Fatal("stall counted but no postmortem captured")
	}

	close(gate)
	eng.Drain()
	eng.Close()
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Counter("saber.overload.stalls").Value(); got != 1 {
		t.Fatalf("stalls = %d, want exactly one episode", got)
	}
}
