package engine

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saber/internal/exec"
	"saber/internal/query"
	"saber/internal/task"
	"saber/internal/window"
)

// windowFixture compiles a tumbling COUNT(*) query on a 4-slot result
// buffer and pre-processes the stream into per-task results, so tests
// can hand results to resultStage.deliver in adversarial orders, each
// within the window [next, next+4) the dispatcher guarantees.
type windowFixture struct {
	h       *Handle
	rs      *resultStage
	tasks   []*task.Task
	results []*exec.TaskResult
	want    []byte
}

func newWindowFixture(t *testing.T, nTasks, batchTuples int) *windowFixture {
	t.Helper()
	mk := func() *query.Query {
		return query.NewBuilder("window").
			From("S", syn, window.NewCount(100, 100)).
			Aggregate(query.Count, nil, "n").
			MustBuild()
	}
	cfg := fastConfig(2)
	cfg.ResultSlots = 4 // the smallest window the defaults allow for 2 workers
	eng := New(cfg)
	h, err := eng.Register(mk())
	if err != nil {
		t.Fatal(err)
	}
	r := h.r
	if len(r.result.slots) != 4 {
		t.Fatalf("result slots = %d, want 4", len(r.result.slots))
	}

	stream := genStream(nTasks*batchTuples, 42)
	f := &windowFixture{h: h, rs: r.result}
	f.want = directRun(t, mk(), [2][]byte{stream, nil}, batchTuples)

	tsz := syn.TupleSize()
	prevTS := int64(window.NoPrev)
	for i := 0; i < nTasks; i++ {
		data := stream[i*batchTuples*tsz : (i+1)*batchTuples*tsz]
		tk := &task.Task{
			Query: 0,
			ID:    int64(i),
			In: [2]exec.Batch{{Data: data, Ctx: window.Context{
				FirstIndex:    int64(i * batchTuples),
				PrevTimestamp: prevTS,
			}}},
		}
		prevTS = syn.Timestamp(data[(batchTuples-1)*tsz:])
		res := r.plan.NewResult()
		if err := r.plan.Process(tk.In, res); err != nil {
			t.Fatal(err)
		}
		f.tasks = append(f.tasks, tk)
		f.results = append(f.results, res)
	}
	return f
}

// collect installs a sink and returns a reader of everything it got.
func (f *windowFixture) collect() func() []byte {
	var mu sync.Mutex
	var got []byte
	f.rs.setSink(func(rows []byte) {
		mu.Lock()
		got = append(got, rows...)
		mu.Unlock()
	})
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// awaitWindow parks until id fits the result window, as the dispatcher
// does before it cuts task id.
func (f *windowFixture) awaitWindow(id int64) {
	for {
		gen := f.rs.progress.Gen()
		if id < f.rs.next.Load()+int64(len(f.rs.slots)) {
			return
		}
		f.rs.progress.Park(gen)
	}
}

// finish checks the quiesced stage and the output after every task has
// been delivered. deliver bypassed the dispatcher, so the task count is
// mirrored first.
func (f *windowFixture) finish(t *testing.T, got func() []byte) {
	t.Helper()
	f.rs.flush()
	f.h.r.taskSeq.Store(int64(len(f.tasks)))
	if n := f.rs.drained.Load(); n != int64(len(f.tasks)) {
		t.Fatalf("drained %d of %d tasks", n, len(f.tasks))
	}
	if err := f.h.CheckQuiesced(); err != nil {
		t.Fatalf("quiesce after drain: %v", err)
	}
	if err := f.rs.CheckInvariants(); err != nil {
		t.Fatalf("result stage invariants: %v", err)
	}
	if !bytes.Equal(got(), f.want) {
		t.Fatalf("reordered delivery changed output: got %d bytes, want %d", len(got()), len(f.want))
	}
}

// inWindowOrder simulates the drain frontier to produce a delivery order
// of n tasks in which every ID is inside the slots-wide window when it is
// delivered; pick chooses among the window's undelivered IDs (ascending).
func inWindowOrder(n, slots int, pick func(avail []int) int) []int {
	delivered := make([]bool, n)
	var order []int
	for next := 0; next < n; {
		var avail []int
		for id := next; id < n && id < next+slots; id++ {
			if !delivered[id] {
				avail = append(avail, id)
			}
		}
		id := avail[pick(avail)]
		delivered[id] = true
		order = append(order, id)
		for next < n && delivered[next] {
			next++
		}
	}
	return order
}

// run delivers order sequentially, advancing the task count like the
// dispatcher, and checks the window invariant after every delivery.
func (f *windowFixture) run(t *testing.T, order []int) {
	t.Helper()
	got := f.collect()
	r := f.h.r
	for _, id := range order {
		if next := f.rs.next.Load(); int64(id) >= next+4 {
			t.Fatalf("order delivers task %d outside the window at frontier %d", id, next)
		}
		if int64(id) >= r.taskSeq.Load() {
			r.taskSeq.Store(int64(id) + 1)
		}
		if !f.rs.deliver(f.tasks[id], f.results[id]) {
			t.Fatalf("first delivery of task %d discarded", id)
		}
		if err := f.rs.CheckInvariants(); err != nil {
			t.Fatalf("after task %d: %v", id, err)
		}
	}
	f.finish(t, got)
}

// TestResultStageWindowFrontierLast always delivers the drain frontier
// last: the three tasks behind it fill the rest of the window first, so
// every drain is a burst of four that empties the whole buffer.
func TestResultStageWindowFrontierLast(t *testing.T) {
	const nTasks = 16
	f := newWindowFixture(t, nTasks, 128)
	order := inWindowOrder(nTasks, 4, func(avail []int) int { return len(avail) - 1 })
	if order[0] != 3 || order[3] != 0 {
		t.Fatalf("order %v does not hold the frontier back", order)
	}
	f.run(t, order)
}

// TestResultStageWindowRandom delivers in seeded random orders within
// the window, so drains advance by bursts of every length.
func TestResultStageWindowRandom(t *testing.T) {
	const nTasks = 32
	for seed := int64(1); seed <= 4; seed++ {
		f := newWindowFixture(t, nTasks, 64)
		rnd := rand.New(rand.NewSource(seed))
		f.run(t, inWindowOrder(nTasks, 4, func(avail []int) int { return rnd.Intn(len(avail)) }))
	}
}

// TestResultStageDuplicateDrainRace targets the deposit/drain TOCTOU
// window: several goroutines deliver every task ID in ascending order on
// a 4-slot buffer, so duplicates constantly race the drainer for the
// slot it is just freeing. The drainer must advance the frontier before
// a slot frees, or a duplicate can CAS-claim the freed slot, pass
// re-validation, and win a second delivery — double-counting the task
// and wedging the slot with a stale ID for every later occupant.
func TestResultStageDuplicateDrainRace(t *testing.T) {
	const nTasks = 64
	const dups = 4
	f := newWindowFixture(t, nTasks, 64)
	got := f.collect()
	// Every attempt carries an identically-processed result, so the
	// output must match the reference no matter which attempt wins.
	r := f.h.r
	results := make([][]*exec.TaskResult, dups)
	results[0] = f.results
	for d := 1; d < dups; d++ {
		results[d] = make([]*exec.TaskResult, nTasks)
		for i, tk := range f.tasks {
			res := r.plan.NewResult()
			if err := r.plan.Process(tk.In, res); err != nil {
				t.Fatal(err)
			}
			results[d][i] = res
		}
	}

	var wins atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < dups; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < nTasks; i++ {
				f.awaitWindow(int64(i))
				if f.rs.deliver(f.tasks[i], results[d][i]) {
					wins.Add(1)
				}
			}
		}(d)
	}
	wg.Wait()

	if wins.Load() != nTasks {
		t.Fatalf("%d deliveries won for %d tasks (exactly-once broken)", wins.Load(), nTasks)
	}
	if got := f.rs.duplicates.Value(); got != nTasks*(dups-1) {
		t.Fatalf("duplicates discarded = %d, want %d", got, nTasks*(dups-1))
	}
	f.finish(t, got)
}

// TestResultStageWindowConcurrent hammers deliver from four goroutines,
// one per slot, each waiting for the window like the dispatcher and
// yielding at random, so deposits, frontier checks and the drain handoff
// interleave freely under -race.
func TestResultStageWindowConcurrent(t *testing.T) {
	const nTasks = 256
	f := newWindowFixture(t, nTasks, 16)
	got := f.collect()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := w; i < nTasks; i += 4 {
				f.awaitWindow(int64(i))
				if rnd.Intn(2) == 0 {
					runtime.Gosched()
				}
				f.rs.deliver(f.tasks[i], f.results[i])
			}
		}(w)
	}
	wg.Wait()
	f.finish(t, got)
}

// gatedQuery is a passthrough over sliding count windows whose
// fragments of task id (at 128 tuples per task) block until gates[id] is
// closed.
func gatedQuery(gates map[int64]chan struct{}) *query.Query {
	udf := &query.UDF{
		Name: "gated",
		Out:  syn,
		ProcessFragment: func(in [][]byte) []byte {
			if len(in[0]) > 0 {
				if g, ok := gates[syn.Timestamp(in[0])/128]; ok {
					<-g
				}
			}
			return append([]byte(nil), in[0]...)
		},
		Merge:    func(acc, next []byte) []byte { return append(acc, next...) },
		Finalize: func(partial []byte) []byte { return partial },
	}
	return query.NewBuilder("gated").
		From("S", syn, window.NewCount(64, 32)).
		UDF(udf).
		MustBuild()
}

// windowConfig is fastConfig on a 4-slot result window with ϕ at 128
// tuples, so task i holds the tuples of timestamps [128i, 128i+128).
func windowConfig() Config {
	cfg := fastConfig(2)
	cfg.ResultSlots = 4
	cfg.TaskSize = 128 * syn.TupleSize()
	return cfg
}

// open closes gate g unless it is already open. Tests defer it for every
// gate after deferring Close, so a failing test never leaves a worker
// blocked in the gate.
func open(g chan struct{}) {
	select {
	case <-g:
	default:
		close(g)
	}
}

// returnsWithin runs fn and reports whether it returned within d.
func returnsWithin(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestResultWindowBoundsCuts runs a query on a 4-slot result window with
// two workers while its frontier task is held back: the dispatcher must
// never cut more than four tasks past the drain frontier. TryInsert
// admits only what the window can cut and otherwise returns at once with
// nothing consumed, Insert parks until the frontier moves, and a Drain
// that finds the window full at the last Insert waits for room and
// finishes. The output must equal a direct run of the plan.
func TestResultWindowBoundsCuts(t *testing.T) {
	first, later := make(chan struct{}), make(chan struct{})
	eng := New(windowConfig())
	h, err := eng.Register(gatedQuery(map[int64]chan struct{}{0: first, 16: later}))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer open(first)
	defer open(later)

	var maxAhead atomic.Int64
	var violation atomic.Value
	stop := make(chan struct{})
	var mon sync.WaitGroup
	stopMonitor := sync.OnceFunc(func() { close(stop); mon.Wait() })
	defer stopMonitor()
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := h.Debug() // TasksCreated is read before NextID
			if ahead := d.TasksCreated - d.NextID; ahead > maxAhead.Load() {
				maxAhead.Store(ahead)
			}
			for _, c := range eng.Invariants() {
				if err := c.CheckInvariants(); err != nil {
					violation.Store(c.InvariantName() + ": " + err.Error())
				}
			}
			runtime.Gosched()
		}
	}()

	const tpt = 128 // tuples per task
	tsz := syn.TupleSize()
	stream := genStream(20*tpt+50, 7)
	a, b, c := 4*tpt*tsz+40*tsz, 16*tpt*tsz, 20*tpt*tsz

	// Task 0 is held. Six tasks' worth needs six slots: rejected whole.
	// Four tasks and a partial one fit. One task more would complete a
	// fifth task on the full window: rejected, without blocking.
	if h.TryInsert(stream[:6*tpt*tsz]) {
		t.Fatal("TryInsert admitted six tasks onto a 4-slot window")
	}
	if d := h.Debug(); d.TasksCreated != 0 {
		t.Fatalf("a rejected TryInsert cut %d tasks", d.TasksCreated)
	}
	if !h.TryInsert(stream[:a]) {
		t.Fatal("TryInsert rejected four tasks on an empty 4-slot window")
	}
	if !returnsWithin(5*time.Second, func() {
		if h.TryInsert(stream[a : a+tpt*tsz]) {
			t.Error("TryInsert admitted a fifth task onto a full window")
		}
	}) {
		t.Fatal("TryInsert blocked on a full result window")
	}
	if d := h.Debug(); d.TasksCreated != 4 || d.WindowWaits != 0 {
		t.Fatalf("after TryInsert: %d tasks cut, %d window waits; want 4 and 0", d.TasksCreated, d.WindowWaits)
	}

	// Insert parks on the full window until task 0 is released.
	inserted := make(chan struct{})
	go func() { h.Insert(stream[a:b]); close(inserted) }()
	waitFor(t, 5*time.Second, func() bool { return h.Debug().WindowWaits > 0 }, "Insert to wait for the window")
	if d := h.Debug(); d.TasksCreated != 4 {
		t.Fatalf("%d tasks cut while the frontier was held", d.TasksCreated)
	}
	open(first)
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert never resumed after the frontier moved")
	}

	// Tasks 16..19 fill the window behind the held task 16; the residue
	// is left for Drain, whose tail cut must wait for room.
	h.Insert(stream[b:c])
	h.Insert(stream[c:])
	waitFor(t, 5*time.Second, func() bool { return h.Debug().TasksCreated == 20 }, "tasks 16..19 to be cut")
	waits := h.Debug().WindowWaits
	drained := make(chan struct{})
	go func() { eng.Drain(); close(drained) }()
	waitFor(t, 5*time.Second, func() bool { return h.Debug().WindowWaits > waits }, "Drain's tail cut to wait for the window")
	open(later)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not finish after the window opened")
	}
	stopMonitor()

	if v := violation.Load(); v != nil {
		t.Fatalf("invariant violated: %v", v)
	}
	if m := maxAhead.Load(); m > 4 {
		t.Fatalf("%d tasks were cut ahead of the drain frontier, window is 4", m)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestInsertAfterTryInsertOnFullWindow feeds through TryInsert while the
// frontier task is held, until the window rejects it, then opens the
// frontier and falls back to a blocking Insert of half the ring. TryInsert
// must have left no full ϕ uncut: such a backlog would keep the ring too
// full for the Insert, and no drain would ever cut it.
func TestInsertAfterTryInsertOnFullWindow(t *testing.T) {
	first := make(chan struct{})
	cfg := windowConfig()
	cfg.InputBufferSize = 1 << 16 // 25 tasks
	eng := New(cfg)
	h, err := eng.Register(gatedQuery(map[int64]chan struct{}{0: first}))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer open(first)

	const tpt = 128
	tsz := syn.TupleSize()
	stream := genStream(40*tpt, 9)
	step := tpt / 2 * tsz
	off := 0
	for h.TryInsert(stream[off : off+step]) {
		off += step
	}
	if d := h.Debug(); d.TasksCreated != 4 || off != 5*tpt*tsz-step {
		t.Fatalf("TryInsert stopped at byte %d with %d tasks cut; want %d and 4", off, d.TasksCreated, 5*tpt*tsz-step)
	}
	open(first)
	half := 12 * tpt * tsz
	if !returnsWithin(10*time.Second, func() { h.Insert(stream[off : off+half]) }) {
		t.Fatal("Insert of half the ring never returned after the frontier moved")
	}
	h.Insert(stream[off+half:])
	eng.Drain()
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestStartCutsPreStartBacklog inserts ten tasks before Start on a 4-slot
// window: the Insert cuts four and buffers the rest. Start must cut that
// backlog, so every task drains with no further Insert and no Drain.
func TestStartCutsPreStartBacklog(t *testing.T) {
	eng := New(windowConfig())
	h, err := eng.Register(gatedQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	defer eng.Close()

	const tpt = 128
	stream := genStream(10*tpt, 13)
	h.Insert(stream)
	if d := h.Debug(); d.TasksCreated != 4 {
		t.Fatalf("%d tasks cut before Start, want 4", d.TasksCreated)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return h.Debug().NextID == 10 }, "all ten tasks to drain without Drain")
	eng.Drain()
	if d := h.Debug(); d.TasksCreated != 10 {
		t.Fatalf("%d tasks cut, want 10 (Drain had no residue to cut)", d.TasksCreated)
	}
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestPreStartInsertBeyondRing inserts more than the ring holds before
// Start: the Insert cuts four tasks, fills the ring with bytes the window
// left uncut and blocks. Once Start runs the workers, the blocked Insert
// must cut that backlog as the window opens, or its next chunk never fits
// and Start, which cuts the backlog under the same lock, never returns.
func TestPreStartInsertBeyondRing(t *testing.T) {
	cfg := windowConfig()
	cfg.InputBufferSize = 1 << 16 // 25 tasks
	eng := New(cfg)
	h, err := eng.Register(gatedQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	defer eng.Close()

	const tpt = 128
	stream := genStream(60*tpt, 19)
	inserted := make(chan struct{})
	go func() { h.Insert(stream); close(inserted) }()
	waitFor(t, 5*time.Second, func() bool { return h.r.over.admitWaits.Value() > 0 }, "the pre-Start Insert to block on the ring")
	if !returnsWithin(10*time.Second, func() {
		if err := eng.Start(); err != nil {
			t.Error(err)
		}
	}) {
		t.Fatal("Start never returned behind the blocked Insert")
	}
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("the pre-Start Insert never returned after Start")
	}
	eng.Drain()
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestDrainCutsPausedBacklogByPhi buffers six tasks and a partial one
// while the query is paused, then drains: the tail cuts the backlog into
// tasks of ϕ, each waiting on the 4-slot window, and only the residue
// goes out as a smaller final task.
func TestDrainCutsPausedBacklogByPhi(t *testing.T) {
	eng := New(windowConfig())
	h, err := eng.Register(gatedQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Pause("gated"); err != nil {
		t.Fatal(err)
	}

	const tpt = 128
	stream := genStream(6*tpt+40, 17)
	h.Insert(stream)
	if d := h.Debug(); d.TasksCreated != 0 {
		t.Fatalf("a paused query cut %d tasks", d.TasksCreated)
	}
	eng.Drain()
	if d := h.Debug(); d.TasksCreated != 7 {
		t.Fatalf("Drain cut the paused backlog into %d tasks, want 6 of ϕ and the residue", d.TasksCreated)
	}
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestResizeWhileCutWaitsForWindow grows ϕ while an Insert's cut is
// parked on a full window. The cut was sized from the ϕ it read before
// the wait, for which the input was pending; a size re-read after the
// wait would reach past the ring's end and panic.
func TestResizeWhileCutWaitsForWindow(t *testing.T) {
	first := make(chan struct{})
	eng := New(windowConfig())
	h, err := eng.Register(gatedQuery(map[int64]chan struct{}{0: first}))
	if err != nil {
		t.Fatal(err)
	}
	out := collectOutput(h)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer open(first)

	const tpt = 128
	stream := genStream(5*tpt+40, 11)
	inserted := make(chan struct{})
	go func() { h.Insert(stream); close(inserted) }()
	waitFor(t, 5*time.Second, func() bool { return h.Debug().WindowWaits > 0 }, "the fifth cut to wait for the window")
	eng.SetTaskSize(16 * tpt * syn.TupleSize())
	open(first)
	select {
	case <-inserted:
	case <-time.After(10 * time.Second):
		t.Fatal("Insert never resumed after the frontier moved")
	}
	eng.Drain()
	if d := h.Debug(); d.TasksCreated != 6 {
		t.Fatalf("%d tasks cut, want 5 of the old ϕ and Drain's tail", d.TasksCreated)
	}
	if err := h.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	want := directRun(t, gatedQuery(nil), [2][]byte{stream, nil}, tpt)
	if !bytes.Equal(out.buf, want) {
		t.Fatalf("output differs from the direct run: %d bytes, want %d", len(out.buf), len(want))
	}
}

// TestWindowInvariantCatchesCutPastWindow cuts a fifth task onto a
// 4-slot window behind the gate's back: the result stage's checker,
// which the stress harness polls, must report it.
func TestWindowInvariantCatchesCutPastWindow(t *testing.T) {
	eng := New(windowConfig())
	defer eng.Close()
	h, err := eng.Register(selQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	// Before Start nothing drains, and a cut never parks: the window
	// takes four tasks and the rest stays pending.
	h.Insert(genStream(6*128, 3))
	r := h.r
	if err := r.result.CheckInvariants(); err != nil {
		t.Fatalf("gated cuts: %v", err)
	}
	if d := h.Debug(); d.TasksCreated != 4 {
		t.Fatalf("%d tasks cut before Start, want 4", d.TasksCreated)
	}
	r.insMu.Lock()
	r.emit([2]int64{128, 0}) // the cut windowOpen would refuse
	r.insMu.Unlock()
	var fired []string
	for _, c := range eng.Invariants() {
		if err := c.CheckInvariants(); err != nil {
			fired = append(fired, err.Error())
		}
	}
	if len(fired) != 1 || !strings.Contains(fired[0], "past drain frontier") {
		t.Fatalf("invariants after a cut past the window: %q", fired)
	}
}
