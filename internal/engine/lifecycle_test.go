package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"saber/internal/expr"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/overload"
	"saber/internal/query"
	"saber/internal/sched"
	"saber/internal/window"
)

// namedSel builds the standard selection query under a custom name, so
// lifecycle tests can register several instances side by side.
func namedSel(name string) *query.Query {
	return query.NewBuilder(name).
		From("S", syn, window.NewCount(64, 32)).
		Where(expr.Cmp{Op: expr.Lt, Left: expr.Col("b"), Right: expr.IntConst(4)}).
		MustBuild()
}

// feedChunked inserts the stream in uneven chunks (same pattern the
// end-to-end tests use).
func feedChunked(h *Handle, stream []byte, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	tsz := syn.TupleSize()
	for off := 0; off < len(stream); {
		n := (1 + rnd.Intn(300)) * tsz
		if off+n > len(stream) {
			n = len(stream) - off
		}
		h.Insert(stream[off : off+n])
		off += n
	}
}

// TestLiveRegister checks that a query registered on a running engine —
// while a sibling is mid-stream — produces byte-identical output to a
// statically registered reference, and that the sibling is undisturbed.
func TestLiveRegister(t *testing.T) {
	eng := New(fastConfig(4))
	h1, err := eng.Register(namedSel("q1"))
	if err != nil {
		t.Fatal(err)
	}
	out1 := collectOutput(h1)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	s1 := genStream(12000, 1)
	s2 := genStream(9000, 2)
	feedChunked(h1, s1[:len(s1)/2], 3)

	h2, err := eng.Register(namedSel("q2"))
	if err != nil {
		t.Fatalf("live Register: %v", err)
	}
	out2 := collectOutput(h2)
	feedChunked(h2, s2, 4)
	feedChunked(h1, s1[len(s1)/2:], 5)

	eng.Drain()
	eng.Close()

	want1 := directRun(t, namedSel("q1"), [2][]byte{s1, nil}, 128)
	want2 := directRun(t, namedSel("q2"), [2][]byte{s2, nil}, 128)
	if !bytes.Equal(out1.buf, want1) {
		t.Errorf("q1 output: got %d bytes, want %d", len(out1.buf), len(want1))
	}
	if !bytes.Equal(out2.buf, want2) {
		t.Errorf("live-registered q2 output: got %d bytes, want %d", len(out2.buf), len(want2))
	}
	for _, h := range []*Handle{h1, h2} {
		if err := h.CheckQuiesced(); err != nil {
			t.Errorf("%s: %v", h.Name(), err)
		}
	}
}

// TestLiveRegisterHybrid registers a query on a running CPU+GPGPU engine
// under HLS, which must grow its per-query streaks for the new index
// before the query's first task is scheduled. Both queries' output must
// match the direct run.
func TestLiveRegisterHybrid(t *testing.T) {
	dev := gpu.Open(gpu.Config{Model: model.Default().Scaled(1e-6)})
	defer dev.Close()
	cfg := fastConfig(2)
	cfg.GPU = dev
	eng := New(cfg)
	h1, err := eng.Register(namedSel("q1"))
	if err != nil {
		t.Fatal(err)
	}
	out1 := collectOutput(h1)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.policy.(*sched.HLS); !ok {
		t.Fatalf("policy is %s, want hls", eng.policy.Name())
	}
	s1 := genStream(12000, 31)
	s2 := genStream(9000, 32)
	feedChunked(h1, s1[:len(s1)/2], 33)

	h2, err := eng.Register(namedSel("q2"))
	if err != nil {
		t.Fatalf("live Register: %v", err)
	}
	out2 := collectOutput(h2)
	feedChunked(h2, s2, 34)
	feedChunked(h1, s1[len(s1)/2:], 35)
	eng.Drain()
	eng.Close()

	if want := directRun(t, namedSel("q1"), [2][]byte{s1, nil}, 128); !bytes.Equal(out1.buf, want) {
		t.Errorf("q1 output: got %d bytes, want %d", len(out1.buf), len(want))
	}
	if want := directRun(t, namedSel("q2"), [2][]byte{s2, nil}, 128); !bytes.Equal(out2.buf, want) {
		t.Errorf("live-registered q2 output: got %d bytes, want %d", len(out2.buf), len(want))
	}
	for _, h := range []*Handle{h1, h2} {
		if err := h.CheckQuiesced(); err != nil {
			t.Errorf("%s: %v", h.Name(), err)
		}
	}
}

// TestPauseResume checks the task-boundary quiesce: while paused no new
// tasks are cut (admission continues into the ring), Resume cuts the
// backlog, and the final output is byte-identical to an uninterrupted run.
func TestPauseResume(t *testing.T) {
	eng := New(fastConfig(4))
	h, err := eng.Register(namedSel("q"))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(16000, 7)
	third := len(stream) / 3 / syn.TupleSize() * syn.TupleSize()
	feedChunked(h, stream[:third], 8)

	if err := eng.Pause("q"); err != nil {
		t.Fatal(err)
	}
	// At the pause boundary every cut task has drained.
	d := h.Debug()
	if d.Drained != d.TasksCreated {
		t.Fatalf("paused with %d/%d tasks drained", d.Drained, d.TasksCreated)
	}
	created := d.TasksCreated
	// Insert while paused: admitted, buffered, but not cut. Keep the
	// volume under the ring capacity so admission cannot block.
	feedChunked(h, stream[third:2*third], 9)
	if got := h.Debug().TasksCreated; got != created {
		t.Fatalf("paused query cut %d new tasks", got-created)
	}
	if err := eng.Pause("q"); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := eng.Resume("q"); err != nil {
		t.Fatal(err)
	}
	if got := h.Debug().TasksCreated; got <= created {
		t.Fatalf("resume cut no backlog (still %d tasks)", got)
	}
	feedChunked(h, stream[2*third:], 10)
	eng.Drain()
	eng.Close()

	want := directRun(t, namedSel("q"), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output after pause/resume: got %d bytes, want %d", len(out.buf), len(want))
	}
	if err := eng.Pause("nope"); err == nil {
		t.Error("Pause of unknown query succeeded")
	}
	if err := eng.Resume("nope"); err == nil {
		t.Error("Resume of unknown query succeeded")
	}
}

// TestResumeBehindParkedInsert pauses a query and inserts four rings of
// data: the Insert fills the ring and parks holding insMu, since nothing
// drains a paused query. Resume must wake it before it cuts the backlog
// under the same lock, or both wait on each other for good.
func TestResumeBehindParkedInsert(t *testing.T) {
	cfg := fastConfig(2)
	cfg.InputBufferSize = 1 << 14
	eng := New(cfg)
	h, err := eng.Register(namedSel("q"))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Pause("q"); err != nil {
		t.Fatal(err)
	}

	stream := genStream(4*cfg.InputBufferSize/syn.TupleSize(), 23)
	inserted := make(chan struct{})
	go func() { h.Insert(stream); close(inserted) }()
	waitFor(t, 5*time.Second, func() bool { return h.Stats().AdmitWaits > 0 }, "the paused query's Insert to park on the full ring")
	if !returnsWithin(10*time.Second, func() {
		if err := eng.Resume("q"); err != nil {
			t.Error(err)
		}
	}) {
		t.Fatal("Resume never returned behind the parked Insert")
	}
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked Insert never returned after Resume")
	}
	eng.Drain()
	if st := h.Stats(); st.TuplesShedAdmit != 0 || st.TuplesShed != 0 {
		t.Fatalf("shed %d tuples at admission and %d in gaps", st.TuplesShedAdmit, st.TuplesShed)
	}
	want := directRun(t, namedSel("q"), [2][]byte{stream, nil}, 128)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestDeregister drops one of two queries mid-stream and checks the
// drain-safe drop protocol: the dropped query's admitted bytes are fully
// flushed (in == out + shed at the drop boundary), its buffers are
// released, inserts on the stale handle become no-ops, the name is
// immediately reusable, and the surviving sibling's output is
// byte-identical to an undisturbed reference.
func TestDeregister(t *testing.T) {
	eng := New(fastConfig(4))
	hDrop, err := eng.Register(namedSel("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	hKeep, err := eng.Register(namedSel("keep"))
	if err != nil {
		t.Fatal(err)
	}
	collectOutput(hDrop)
	outKeep := collectOutput(hKeep)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	sKeep := genStream(12000, 11)
	sDrop := genStream(8000, 12)
	feedChunked(hKeep, sKeep[:len(sKeep)/2], 13)
	feedChunked(hDrop, sDrop, 14)

	if err := eng.Deregister("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Deregister("doomed"); err == nil {
		t.Error("double Deregister succeeded")
	}
	// Conservation at the drop boundary: every admitted tuple was emitted
	// through a task or accounted shed.
	st := hDrop.Stats()
	tsz := int64(syn.TupleSize())
	if in, flushed := st.BytesIn/tsz, st.TasksCreated; in > 0 && flushed == 0 {
		t.Error("drop flushed no tasks despite admitted input")
	}
	d := hDrop.Debug()
	if d.Drained != d.TasksCreated {
		t.Errorf("dropped query drained %d of %d tasks", d.Drained, d.TasksCreated)
	}
	if rings := hDrop.Debug().RingWraps; len(rings) != 0 {
		t.Errorf("dropped query still exposes %d rings", len(rings))
	}
	// Inserting on the stale handle is a no-op, not a crash.
	before := hDrop.Stats().BytesOffered
	hDrop.Insert(genStream(100, 15))
	if hDrop.Stats().BytesOffered != before {
		t.Error("insert on dropped handle was accounted as offered")
	}
	if ok := hDrop.TryInsert(genStream(10, 16)); ok {
		t.Error("TryInsert on dropped handle succeeded")
	}

	// The name is reusable immediately; the new query gets a fresh index.
	hNew, err := eng.Register(namedSel("doomed"))
	if err != nil {
		t.Fatalf("re-register dropped name: %v", err)
	}
	outNew := collectOutput(hNew)
	sNew := genStream(6000, 17)
	feedChunked(hNew, sNew, 18)

	feedChunked(hKeep, sKeep[len(sKeep)/2:], 19)
	eng.Drain()
	eng.Close()

	if want := directRun(t, namedSel("keep"), [2][]byte{sKeep, nil}, 128); !bytes.Equal(outKeep.buf, want) {
		t.Errorf("surviving query output: got %d bytes, want %d", len(outKeep.buf), len(want))
	}
	if want := directRun(t, namedSel("doomed"), [2][]byte{sNew, nil}, 128); !bytes.Equal(outNew.buf, want) {
		t.Errorf("re-registered query output: got %d bytes, want %d", len(outNew.buf), len(want))
	}
	if err := hKeep.CheckQuiesced(); err != nil {
		t.Errorf("keep: %v", err)
	}
	if err := eng.Deregister("nope"); err == nil {
		t.Error("Deregister of unknown query succeeded")
	}
}

// TestPerQueryOverload checks that RegisterOptions.Overload overrides the
// engine-wide config for one query only: the constrained query sheds
// under pressure while its sibling, sharing the engine, stays lossless.
func TestPerQueryOverload(t *testing.T) {
	cfg := fastConfig(2)
	eng := New(cfg)
	hFree, err := eng.Register(namedSel("free"))
	if err != nil {
		t.Fatal(err)
	}
	hCapped, err := eng.RegisterWith(namedSel("capped"), RegisterOptions{
		Overload: &overload.Config{
			MaxQueueBytes: 32 << 10,
			Policy:        overload.ShedWeighted,
			MaxWait:       0, // defaulted
			Seed:          42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	collectOutput(hFree)
	collectOutput(hCapped)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	stream := genStream(40000, 20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		feedChunked(hFree, stream, 21)
	}()
	feedChunked(hCapped, stream, 22)
	<-done
	eng.Drain()
	eng.Close()

	free, capped := hFree.Stats(), hCapped.Stats()
	if free.TuplesShedAdmit != 0 || free.TuplesShed != 0 {
		t.Errorf("unconstrained query shed: %+v", free)
	}
	if free.BytesIn != int64(len(stream)) {
		t.Errorf("unconstrained query admitted %d of %d bytes", free.BytesIn, len(stream))
	}
	// The capped query's ledger must balance regardless of whether the
	// pressure actually triggered sheds in this run: offered == in + shed.
	tsz := int64(syn.TupleSize())
	if capped.BytesOffered != capped.BytesIn+capped.TuplesShedAdmit*tsz {
		t.Errorf("capped ledger: offered %d != in %d + shedAdmit %d tuples",
			capped.BytesOffered, capped.BytesIn, capped.TuplesShedAdmit)
	}
}

// TestLiveRegisterManyUnderChurn registers queries while siblings stream,
// drops some, and checks every query that ever ran satisfies conservation
// — a miniature of the harness dynamic-lifecycle scenario, kept in-package
// so engine refactors hit it first.
func TestLiveRegisterManyUnderChurn(t *testing.T) {
	eng := New(fastConfig(4))
	if _, err := eng.Register(namedSel("q0")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := eng.Register(namedSel(fmt.Sprintf("churn%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		collectOutput(h)
		handles = append(handles, h)
		feedChunked(h, genStream(3000, int64(30+i)), int64(40+i))
		if i%2 == 1 {
			if err := eng.Deregister(fmt.Sprintf("churn%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Drain()
	eng.Close()
	for _, h := range handles {
		st := h.Stats()
		d := h.Debug()
		if d.Drained != d.TasksCreated {
			t.Errorf("%s: drained %d of %d tasks", h.Name(), d.Drained, d.TasksCreated)
		}
		if st.BytesOffered < st.BytesIn {
			t.Errorf("%s: offered %d < admitted %d", h.Name(), st.BytesOffered, st.BytesIn)
		}
	}
}
