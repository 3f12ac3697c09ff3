package saber

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"saber/internal/workload"
)

// TestBQLEndToEnd is the frontend's acceptance demo on the public API:
// an engine booted from a BQL script serves three concurrent queries;
// mid-stream, one stream is dropped and another added through the HTTP
// admin API; every surviving stream's output is byte-identical to a
// statically registered single-query reference (zero disturbance from
// sibling DDL); and a second engine booted from the same checkpoint
// directory restores the exact final catalog.
func TestBQLEndToEnd(t *testing.T) {
	const (
		seed  = 3
		count = 20000
	)
	dir := t.TempDir()
	cfg := Config{CPUWorkers: 4, TaskSize: 4096, DisablePad: true,
		CheckpointDir: dir, CheckpointInterval: -1}

	// Non-aggregate streams default to IStream, which is the identity on
	// selection output — so a plain statically registered CQL query is
	// the exact reference for each stream.
	queries := map[string]string{
		"wide": "SELECT * FROM Syn [rows 64 slide 32] WHERE a3 < 512",
		"agg":  "SELECT count(*) AS n FROM Syn [rows 200 slide 50]",
		"slim": "SELECT timestamp, a1 FROM Syn [rows 64 slide 64]",
	}
	script := `CREATE SOURCE Syn TYPE gen WITH (gen='syn', seed=3, rate=400000, count=20000);
CREATE STREAM wide AS ` + queries["wide"] + `;
CREATE STREAM agg AS ` + queries["agg"] + `;
CREATE STREAM slim AS ` + queries["slim"] + `;`

	eng := New(cfg)
	cat, info, err := eng.BootScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if info != nil {
		t.Fatalf("cold boot restored: %+v", info)
	}

	type sink struct {
		mu  sync.Mutex
		buf []byte
	}
	taps := map[string]*sink{}
	tap := func(name string) {
		s := &sink{}
		taps[name] = s
		if err := cat.Tap(name, func(rows []byte) {
			s.mu.Lock()
			s.buf = append(s.buf, rows...)
			s.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for name := range queries {
		tap(name)
	}

	srv := httptest.NewServer(eng.AdminHandler(cat))
	defer srv.Close()
	ddl := func(stmt string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/catalog/ddl", "text/plain", strings.NewReader(stmt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var res struct{ Error string }
			_ = json.NewDecoder(resp.Body).Decode(&res)
			t.Fatalf("ddl %q: status %d: %s", stmt, resp.StatusCode, res.Error)
		}
	}

	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	cat.StartFeeds()

	// Wait until the paced run is genuinely mid-stream, then mutate the
	// catalog through the admin API: add one stream, drop another.
	h, err := cat.Stream("wide")
	if err != nil {
		t.Fatal(err)
	}
	quarter := int64(count / 4 * workload.SynSchema.TupleSize())
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().BytesIn < quarter {
		if time.Now().After(deadline) {
			t.Fatalf("feed stuck at %d bytes", h.Stats().BytesIn)
		}
		time.Sleep(time.Millisecond)
	}
	// Create the new stream paused (one atomic DDL batch) so the tap
	// attaches before any result is emitted, then release it.
	lateQuery := "SELECT timestamp, a2 FROM Syn [rows 32 slide 32]"
	ddl("CREATE STREAM late AS " + lateQuery + "; PAUSE STREAM late;")
	tap("late")
	ddl("RESUME STREAM late;")
	ddl("DROP STREAM slim;")

	cat.WaitFeeds()
	eng.Drain()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cat.Close()
	eng.Close()

	// Differential: each surviving stream against a statically registered
	// single-query engine over the identical deterministic input. The
	// mid-run DDL must have left no trace in their bytes — and the
	// late-created stream sees the full stream (its feeder replays the
	// deterministic source from tuple zero).
	input := workload.NewSynGen(seed).Next(nil, count)
	refQueries := map[string]string{
		"wide": queries["wide"], "agg": queries["agg"], "late": lateQuery,
	}
	for name, q := range refQueries {
		ref := New(Config{CPUWorkers: 4, TaskSize: 4096, DisablePad: true})
		ref.DeclareStream("Syn", workload.SynSchema)
		qh, err := ref.Query(name, q)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var want []byte
		qh.OnResult(func(rows []byte) {
			mu.Lock()
			want = append(want, rows...)
			mu.Unlock()
		})
		if err := ref.Start(); err != nil {
			t.Fatal(err)
		}
		qh.Insert(input)
		ref.Drain()
		ref.Close()
		if got := taps[name].buf; !bytes.Equal(got, want) {
			t.Errorf("%s: catalog run %d bytes, static reference %d bytes", name, len(got), len(want))
		}
	}

	// Restore round-trip: a fresh engine booted from the checkpoint
	// directory rebuilds the final catalog — late present, slim gone —
	// without consulting the boot script.
	eng2 := New(cfg)
	cat2, info2, err := eng2.BootScript("ignored on restore")
	if err != nil {
		t.Fatal(err)
	}
	if info2 == nil {
		t.Fatal("no restore happened")
	}
	names := map[string]bool{}
	for _, s := range cat2.List().Streams {
		names[s.Name] = true
	}
	for _, want := range []string{"wide", "agg", "late"} {
		if !names[want] {
			t.Errorf("restored catalog lacks %s: %v", want, names)
		}
	}
	if names["slim"] {
		t.Errorf("dropped stream came back: %v", names)
	}
	cat2.Close()
	eng2.Close()
}
