package catalog

import (
	"bytes"
	"testing"
	"time"

	"saber/internal/bql"
	"saber/internal/engine"
	"saber/internal/workload"
)

// waitOut polls until the stream has drained output (so a checkpoint
// cut now lands mid-stream, with real state on both sides of the
// barrier). Committed() itself only advances when an epoch is cut.
func waitOut(t *testing.T, h *engine.Handle, min int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().BytesOut < min {
		if time.Now().After(deadline) {
			t.Fatalf("output stuck at %d bytes", h.Stats().BytesOut)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashRestartDifferential is the catalog's exactly-once contract:
// run a scripted engine with live DDL (a stream created mid-run, another
// dropped mid-run), crash it without drain after a checkpoint, Boot a
// fresh engine from the same directory, and check that for every stream
// in the restored catalog, committed-prefix + post-recovery output is
// byte-identical to an uninterrupted statically registered reference.
// A query registered behind the catalog's back (a statement-log/snapshot
// mismatch, the crash-window shape) restores as a skipped unmatched
// entry, not a refused recovery.
func TestCrashRestartDifferential(t *testing.T) {
	dir := t.TempDir()

	// --- Phase A: scripted boot, live DDL, crash. ---
	engA := engine.New(fastCfg(dir))
	mA, info, err := Boot(engA, testScript(400000))
	if err != nil {
		t.Fatal(err)
	}
	if info != nil {
		t.Fatalf("cold boot returned restore info %+v", info)
	}
	preTaps := map[string]*collector{}
	for name := range testStreams {
		preTaps[name] = tapStream(t, mA, name)
	}

	// A query the catalog does not know about: its snapshot entry will
	// have no replayed statement and must be skipped on restore.
	ghostSc, _ := bql.Parse("CREATE STREAM ghost AS SELECT * FROM Syn [rows 32] WHERE a3 < 0;")
	ghostSpec, err := bql.AnalyzeStream(ghostSc.Src, ghostSc.Stmts[0].(*bql.CreateStream), bql.Streams{"Syn": workload.SynSchema})
	if err != nil {
		t.Fatal(err)
	}
	hGhost, err := engA.Register(ghostSpec.Query)
	if err != nil {
		t.Fatal(err)
	}

	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	mA.StartFeeds()
	hGhost.Insert(refInput(testSeed, 2000))

	hSel, _ := mA.Handle("sel")
	waitOut(t, hSel, 1)
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Live DDL after the first epoch: CREATE one stream, DROP another.
	lateStmt := "CREATE STREAM late AS SELECT timestamp, a2 FROM Syn [rows 32 slide 32]"
	if _, err := mA.Exec(lateStmt + "; PAUSE STREAM late;"); err != nil {
		t.Fatal(err)
	}
	preLate := tapStream(t, mA, "late")
	if _, err := mA.Exec("RESUME STREAM late;"); err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Exec("DROP STREAM proj;"); err != nil {
		t.Fatal(err)
	}

	hLate, _ := mA.Handle("late")
	waitOut(t, hLate, 1)
	hAgg, _ := mA.Handle("agg")
	waitOut(t, hAgg, 1)
	if _, err := engA.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Crash: signal feeders, no drain. Buffered input and queued tasks
	// are abandoned.
	mA.Close()
	engA.Close()

	// --- Phase B: boot from the crash directory. ---
	engB := engine.New(fastCfg(dir))
	mB, info, err := Boot(engB, "IGNORED — restore path must not parse this")
	if err != nil {
		t.Fatal(err)
	}
	if info == nil {
		t.Fatal("restore boot returned no info")
	}
	if info.Unmatched != 1 {
		t.Errorf("unmatched snapshot queries: %d, want 1 (ghost)", info.Unmatched)
	}
	l := mB.List()
	names := map[string]bool{}
	for _, s := range l.Streams {
		names[s.Name] = true
	}
	if !names["sel"] || !names["agg"] || !names["late"] || names["proj"] || names["ghost"] {
		t.Fatalf("restored stream set: %v", names)
	}

	postTaps := map[string]*collector{}
	committed := map[string]int64{}
	for _, name := range []string{"sel", "agg", "late"} {
		postTaps[name] = tapStream(t, mB, name)
		h, err := mB.Handle(name)
		if err != nil {
			t.Fatal(err)
		}
		committed[name] = h.Committed()
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	mB.StartFeeds()
	mB.WaitFeeds()
	engB.Drain()
	mB.Close()
	engB.Close()

	// --- Differential: every restored stream is byte-identical to an
	// uninterrupted run. ---
	input := refInput(testSeed, testCount)
	refs := map[string]string{
		"sel":  testStreams["sel"],
		"agg":  testStreams["agg"],
		"late": lateStmt,
	}
	pres := map[string]*collector{"sel": preTaps["sel"], "agg": preTaps["agg"], "late": preLate}
	for name, stmt := range refs {
		want := refRun(t, stmt+";", input)
		pre := pres[name].bytes()
		c := committed[name]
		if int64(len(pre)) < c {
			t.Fatalf("%s: pre-crash tap saw %d bytes, barrier committed %d", name, len(pre), c)
		}
		got := append(pre[:c:c], postTaps[name].bytes()...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed-prefix+recovery = %d bytes, uninterrupted reference = %d",
				name, len(got), len(want))
		}
	}
}
