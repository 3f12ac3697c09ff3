package catalog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"saber/internal/bql"
	"saber/internal/engine"
	"saber/internal/ingest"
	"saber/internal/workload"
)

func fastCfg(dir string) engine.Config {
	cfg := engine.Config{CPUWorkers: 4, TaskSize: 4096, DisablePad: true}
	if dir != "" {
		cfg.CheckpointDir = dir
		cfg.CheckpointInterval = -1 // epochs are cut explicitly
	}
	return cfg
}

// collector buffers a stream tap.
type collector struct {
	mu  sync.Mutex
	buf []byte
}

func (c *collector) add(rows []byte) {
	c.mu.Lock()
	c.buf = append(c.buf, rows...)
	c.mu.Unlock()
}

func (c *collector) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}

// tapStream attaches a fresh collector to a stream.
func tapStream(t *testing.T, m *Manager, name string) *collector {
	t.Helper()
	c := &collector{}
	if err := m.Tap(name, c.add); err != nil {
		t.Fatal(err)
	}
	return c
}

// refInput regenerates a gen source's full deterministic stream.
func refInput(seed int64, count int) []byte {
	return workload.NewSynGen(seed).Next(nil, count)
}

// refRun compiles the stream statement against the given schema catalog
// and runs it alone on a fresh engine over input — the statically
// registered reference the catalog-managed run must match byte for byte.
func refRun(t *testing.T, stmt string, input []byte) []byte {
	t.Helper()
	sc, err := bql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := sc.Stmts[0].(*bql.CreateStream)
	if !ok {
		t.Fatalf("reference statement is %T", sc.Stmts[0])
	}
	spec, err := bql.AnalyzeStream(sc.Src, cs, bql.Streams{"Syn": workload.SynSchema})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(fastCfg(""))
	h, err := eng.Register(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	em := newEmitter(spec.Emitter, spec.Query.IsAggregation(), h.OutputSchema().TupleSize())
	c := &collector{}
	h.OnResult(func(rows []byte) {
		if out := em.apply(rows); len(out) > 0 {
			c.add(out)
		}
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	h.Insert(input)
	eng.Drain()
	eng.Close()
	return c.bytes()
}

const (
	testSeed  = 5
	testCount = 20000
)

var testStreams = map[string]string{
	// a3 is drawn from [0,1024), so the predicate passes ~half the rows —
	// the selection differential compares real bytes, not empty outputs.
	"sel":  "CREATE STREAM sel AS SELECT * FROM Syn [rows 64 slide 32] WHERE a3 < 512",
	"agg":  "CREATE STREAM agg AS SELECT count(*) AS n FROM Syn [rows 200 slide 50]",
	"proj": "CREATE STREAM proj AS SELECT timestamp, a1 FROM Syn [rows 64 slide 64]",
}

func testScript(rate int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE SOURCE Syn TYPE gen WITH (gen='syn', seed=%d, count=%d", testSeed, testCount)
	if rate > 0 {
		fmt.Fprintf(&b, ", rate=%d", rate)
	}
	b.WriteString(");\nCREATE SINK devnull TYPE null;\n")
	for _, name := range []string{"sel", "agg", "proj"} {
		b.WriteString(testStreams[name])
		b.WriteString(";\n")
	}
	return b.String()
}

// TestScriptedLifecycle boots three streams from a script, runs the gen
// source to its count bound and checks every stream's output is
// byte-identical to a statically registered single-query reference.
func TestScriptedLifecycle(t *testing.T) {
	eng := engine.New(fastCfg(""))
	m := New(eng)
	if err := m.ExecScript(testScript(0)); err != nil {
		t.Fatal(err)
	}
	taps := map[string]*collector{}
	for name := range testStreams {
		taps[name] = tapStream(t, m, name)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	m.StartFeeds()
	m.WaitFeeds()
	eng.Drain()
	m.Close()
	eng.Close()

	input := refInput(testSeed, testCount)
	for name, stmt := range testStreams {
		want := refRun(t, stmt+";", input)
		if got := taps[name].bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: got %d bytes, want %d", name, len(got), len(want))
		}
	}
	l := m.List()
	if len(l.Sources) != 1 || len(l.Sinks) != 1 || len(l.Streams) != 3 {
		t.Errorf("listing: %d sources, %d sinks, %d streams", len(l.Sources), len(l.Sinks), len(l.Streams))
	}
	if len(l.Statements) != 5 {
		t.Errorf("statement log: %v", l.Statements)
	}
}

// TestDynamicDDL exercises the live paths: a stream created mid-run
// still sees the source's full deterministic stream (per-tap feeders), a
// dropped stream quiesces cleanly and unpublishes its statement, pause
// parks the statement log entry until resume, and the siblings keep
// byte-identical output throughout.
func TestDynamicDDL(t *testing.T) {
	eng := engine.New(fastCfg(""))
	m := New(eng)
	// Pace the source so DDL lands genuinely mid-stream.
	if err := m.ExecScript(testScript(400000)); err != nil {
		t.Fatal(err)
	}
	taps := map[string]*collector{}
	for name := range testStreams {
		taps[name] = tapStream(t, m, name)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	m.StartFeeds()

	// Wait until the run is genuinely mid-stream.
	waitBytesIn(t, m, "sel", int64(testCount/4*workload.SynTupleSize))

	// Live CREATE: the new stream's feeder starts its own generator from
	// zero, so it sees the identical full stream.
	// Created paused so the tap attaches before the first result, then
	// released — the pattern an operator uses to plumb a sink first.
	lateStmt := "CREATE STREAM late AS SELECT timestamp, a2 FROM Syn [rows 32 slide 32]"
	if n, err := m.Exec(lateStmt + "; PAUSE STREAM late;"); err != nil || n != 2 {
		t.Fatalf("live CREATE: %d, %v", n, err)
	}
	lateTap := tapStream(t, m, "late")
	if _, err := m.Exec("RESUME STREAM late;"); err != nil {
		t.Fatal(err)
	}

	// Live PAUSE/RESUME on a sibling.
	if _, err := m.Exec("PAUSE STREAM proj;"); err != nil {
		t.Fatal(err)
	}
	if !contains(m.Statements(), "PAUSE STREAM proj") {
		t.Errorf("pause not logged: %v", m.Statements())
	}
	if _, err := m.Exec("RESUME STREAM proj;"); err != nil {
		t.Fatal(err)
	}
	if contains(m.Statements(), "PAUSE STREAM proj") {
		t.Errorf("resume left pause logged: %v", m.Statements())
	}

	// Live DROP of a stream mid-run.
	if _, err := m.Exec("DROP STREAM agg;"); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Statements() {
		if strings.Contains(s, "CREATE STREAM agg") {
			t.Errorf("dropped stream still logged: %v", m.Statements())
		}
	}
	// Its source dependency is gone too, so dropping the source while
	// other readers remain must still refuse.
	if _, err := m.Exec("DROP SOURCE Syn;"); err == nil {
		t.Fatal("DROP SOURCE with live readers succeeded")
	}

	m.WaitFeeds()
	eng.Drain()
	m.Close()
	eng.Close()

	input := refInput(testSeed, testCount)
	for _, name := range []string{"sel", "proj"} {
		want := refRun(t, testStreams[name]+";", input)
		if got := taps[name].bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s disturbed by sibling DDL: got %d bytes, want %d", name, len(got), len(want))
		}
	}
	if want := refRun(t, lateStmt+";", input); !bytes.Equal(lateTap.bytes(), want) {
		t.Errorf("late stream: got %d bytes, want %d", len(lateTap.bytes()), len(want))
	}
	// The dropped stream's ledger still balances at its drop boundary.
	l := m.List()
	if len(l.Streams) != 3 {
		t.Errorf("final streams: %+v", l.Streams)
	}
}

func waitBytesIn(t *testing.T, m *Manager, stream string, min int64) {
	t.Helper()
	h, err := m.Handle(stream)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().BytesIn < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s: stuck at %d bytes in", stream, h.Stats().BytesIn)
		}
		time.Sleep(time.Millisecond)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestCatalogErrors covers the dependency-graph refusals and name rules.
func TestCatalogErrors(t *testing.T) {
	eng := engine.New(fastCfg(""))
	m := New(eng)
	mustExec := func(src string) {
		t.Helper()
		if _, err := m.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	mustFail := func(src, why string) {
		t.Helper()
		if _, err := m.Exec(src); err == nil {
			t.Errorf("%s: %q succeeded", why, src)
		}
	}
	mustExec("CREATE SOURCE Syn TYPE gen WITH (gen='syn', count=100);")
	mustExec("CREATE SINK out TYPE null;")
	mustExec("CREATE STREAM s AS SELECT * FROM Syn [rows 4] INTO out;")

	mustFail("CREATE SOURCE Syn TYPE gen WITH (gen='syn');", "duplicate source")
	mustFail("CREATE SINK out TYPE null;", "duplicate sink")
	mustFail("CREATE STREAM s AS SELECT * FROM Syn [rows 4];", "duplicate stream")
	mustFail("CREATE STREAM t AS SELECT * FROM Missing [rows 4];", "unknown source")
	mustFail("CREATE STREAM t AS SELECT * FROM Syn [rows 4] INTO missing;", "unknown sink")
	mustFail("DROP SOURCE Syn;", "source with readers")
	mustFail("DROP SINK out;", "sink with writers")
	mustFail("DROP STREAM nope;", "unknown stream")
	mustFail("PAUSE STREAM nope;", "pause unknown")

	mustExec("DROP STREAM s;")
	mustExec("DROP SINK out;")
	mustExec("DROP SOURCE Syn;")
	if got := m.Statements(); len(got) != 0 {
		t.Errorf("log after full teardown: %v", got)
	}
	eng.Close()
}

// TestTCPSourceFanOut feeds one tcp source, read by two streams, through
// an ingest client and drops one stream mid-feed. The fan-out must
// deliver every frame to both readers until the drop, and to the
// survivor alone after it. The survivor writes INTO a file sink, which
// must hold exactly its reference output.
func TestTCPSourceFanOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sel.bin")
	eng := engine.New(fastCfg(""))
	m := New(eng)
	script := fmt.Sprintf("CREATE SOURCE Syn TYPE tcp WITH (schema='syn', addr='127.0.0.1:0');\n"+
		"CREATE SINK f TYPE file WITH (path='%s');\n%s INTO f;\n%s;\n", path, testStreams["sel"], testStreams["agg"])
	if err := m.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	sel, agg := tapStream(t, m, "sel"), tapStream(t, m, "agg")
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m.StartFeeds()
	c, err := ingest.Dial(m.List().Sources[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	input := refInput(testSeed, testCount)
	half := testCount / 2 * workload.SynTupleSize
	send := func(b []byte) {
		t.Helper()
		for frame := 1000 * workload.SynTupleSize; len(b) > 0; b = b[min(frame, len(b)):] {
			if err := c.Send(b[:min(frame, len(b))]); err != nil {
				t.Fatal(err)
			}
		}
	}

	send(input[:half])
	waitBytesIn(t, m, "sel", int64(half))
	waitBytesIn(t, m, "agg", int64(half))
	if _, err := m.Exec("DROP STREAM agg;"); err != nil {
		t.Fatal(err)
	}
	if n := m.List().Sources[0].Readers; n != 1 {
		t.Fatalf("source has %d readers after the drop, want 1", n)
	}
	send(input[half:])
	waitBytesIn(t, m, "sel", int64(len(input)))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	m.Close()

	want := refRun(t, testStreams["sel"]+";", input)
	if got := sel.bytes(); !bytes.Equal(got, want) {
		t.Errorf("sel: got %d bytes, want %d", len(got), len(want))
	}
	if want := refRun(t, testStreams["agg"]+";", input[:half]); !bytes.Equal(agg.bytes(), want) {
		t.Errorf("agg dropped mid-feed: got %d bytes, want %d", len(agg.bytes()), len(want))
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Errorf("file sink holds %d bytes, want %d", len(file), len(want))
	}
}
