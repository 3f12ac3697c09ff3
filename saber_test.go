package saber

import (
	"sync"
	"testing"
	"time"

	"saber/internal/expr"
	"saber/internal/ingest"
	"saber/internal/query"
	"saber/internal/schema"
)

func testStream(n int) (*Schema, []byte) {
	s := MustSchema(
		Field{Name: "timestamp", Type: Int64},
		Field{Name: "value", Type: Float32},
		Field{Name: "key", Type: Int32},
	)
	b := schema.NewTupleBuilder(s, n)
	for i := 0; i < n; i++ {
		b.Begin().Timestamp(int64(i)).Float32("value", float32(i%10)).Int32("key", int32(i%4))
	}
	return s, b.Bytes()
}

func TestPublicAPIQuickstart(t *testing.T) {
	s, stream := testStream(10000)
	eng := New(Config{CPUWorkers: 2, TaskSize: 4096, DisablePad: true})
	eng.DeclareStream("S", s)

	q, err := eng.Query("avg", `
		select timestamp, key, avg(value) as avgValue, count(*) as n
		from S [rows 1000 slide 1000]
		group by key`)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rowsSeen := 0
	out := q.OutputSchema()
	q.OnResult(func(rows []byte) {
		mu.Lock()
		rowsSeen += len(rows) / out.TupleSize()
		mu.Unlock()
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	q.Insert(stream)
	eng.Drain()
	eng.Close()

	// 10 tumbling windows × 4 keys.
	if rowsSeen != 40 {
		t.Fatalf("rows = %d, want 40", rowsSeen)
	}
	st := q.Stats()
	if st.BytesIn != int64(len(stream)) || st.TuplesOut != 40 {
		t.Errorf("stats = %+v", st)
	}
	if q.Name() != "avg" || q.String() != "query(avg)" {
		t.Errorf("naming: %s / %s", q.Name(), q.String())
	}
}

func TestPublicAPIHybrid(t *testing.T) {
	dev := OpenGPU(GPUConfig{Model: DefaultModel().Scaled(1e-6)})
	defer dev.Close()
	s, stream := testStream(50000)
	eng := New(Config{CPUWorkers: 2, TaskSize: 4096, GPU: dev, DisablePad: true, SwitchThreshold: 3})
	eng.DeclareStream("S", s)
	q := eng.MustQuery("sel", `select * from S [rows 64] where value > 4.0`)
	var mu sync.Mutex
	gotBytes := 0
	q.OnResult(func(rows []byte) { mu.Lock(); gotBytes += len(rows); mu.Unlock() })
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	q.Insert(stream)
	eng.Drain()
	eng.Close()
	// value = i%10 > 4 → half the tuples.
	if gotBytes != len(stream)/2 {
		t.Fatalf("output bytes = %d, want %d", gotBytes, len(stream)/2)
	}
	st := q.Stats()
	if st.TasksGPU == 0 || st.TasksCPU == 0 {
		t.Errorf("hybrid split = %+v", st)
	}
	if m := eng.ThroughputMatrix(); len(m) != 1 || m[0][0] <= 0 {
		t.Errorf("matrix = %v", m)
	}
}

func TestPublicAPIBuilderAndWindows(t *testing.T) {
	s, stream := testStream(5000)
	eng := New(Config{CPUWorkers: 1, TaskSize: 8192, DisablePad: true})
	q := NewQuery("built").
		From("S", s, CountWindow(500, 250)).
		Aggregate(query.Sum, expr.Col("value"), "total").
		MustBuild()
	h, err := eng.RegisterQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	h.Insert(stream)
	eng.Drain()
	eng.Close()
	if h.Stats().TuplesOut == 0 {
		t.Fatal("no windows emitted")
	}
	if CountWindow(4, 2).Kind != TimeWindow(4, 2).Kind {
		// distinct kinds
	} else {
		t.Error("window constructors collapsed")
	}
	if UnboundedWindow().Validate() != nil {
		t.Error("unbounded invalid")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	eng := New(Config{CPUWorkers: 1, DisablePad: true})
	if _, err := eng.Query("q", `select * from Missing [rows 4]`); err == nil {
		t.Error("unknown stream accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustQuery did not panic")
		}
	}()
	eng.MustQuery("q", `select`)
}

// TestConfigReachesEngine checks that the public Config's sub-configs
// and knobs take effect in the engine they configure.
func TestConfigReachesEngine(t *testing.T) {
	s, stream := testStream(20000)
	const budget = 16 << 10
	cases := []struct {
		name string
		cfg  Config
		// run drives the engine with q registered; the test closes it.
		run func(t *testing.T, eng *Engine, q *QueryHandle)
	}{{
		name: "overload budget",
		cfg: Config{CPUWorkers: 1, TaskSize: 4096, DisablePad: true,
			Overload: &OverloadConfig{MaxQueueBytes: budget}},
		run: func(t *testing.T, eng *Engine, q *QueryHandle) {
			// Unstarted, the engine drains nothing: a payload of exactly the
			// budget is admitted and any further tuple is over it.
			if !q.TryInsert(stream[:budget]) {
				t.Fatal("TryInsert refused a payload within MaxQueueBytes")
			}
			if q.TryInsert(stream[budget : budget+s.TupleSize()]) {
				t.Fatal("TryInsert admitted a tuple past MaxQueueBytes")
			}
		},
	}, {
		name: "adaptive task size",
		cfg: Config{CPUWorkers: 1, TaskSize: 4096, DisablePad: true,
			Adapt: &AdaptConfig{SLO: 50 * time.Millisecond, Interval: time.Millisecond}},
		run: func(t *testing.T, eng *Engine, q *QueryHandle) {
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			q.Insert(stream)
			deadline := time.Now().Add(5 * time.Second)
			for eng.Metrics().Snapshot().Counters["saber.adapt.ticks"] == 0 {
				if time.Now().After(deadline) {
					t.Fatal("adapt controller never ticked within 5s")
				}
				time.Sleep(time.Millisecond)
			}
			eng.Drain()
		},
	}, {
		name: "unpadded",
		// Padded, this model would hold the Insert for about 1s.
		cfg: Config{CPUWorkers: 1, TaskSize: 4096, DisablePad: true,
			Model: DefaultModel().Scaled(2e4)},
		run: func(t *testing.T, eng *Engine, q *QueryHandle) {
			var mu sync.Mutex
			got := 0
			q.OnResult(func(rows []byte) { mu.Lock(); got += len(rows); mu.Unlock() })
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			q.Insert(stream)
			if d := time.Since(start); d > 500*time.Millisecond {
				t.Fatalf("Insert took %v: DisablePad did not reach the engine", d)
			}
			eng.Drain()
			if got != len(stream)/2 {
				t.Fatalf("output bytes = %d, want %d", got, len(stream)/2)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(tc.cfg)
			defer eng.Close()
			eng.DeclareStream("S", s)
			tc.run(t, eng, eng.MustQuery("sel", `select * from S [rows 64] where value > 4.0`))
		})
	}
}

func TestNetworkIngestEndToEnd(t *testing.T) {
	s, stream := testStream(20000)
	eng := New(Config{CPUWorkers: 2, TaskSize: 4096, DisablePad: true})
	eng.DeclareStream("S", s)
	q := eng.MustQuery("net", `select timestamp, key, count(*) as n from S [rows 1000] group by key`)
	var mu sync.Mutex
	rows := 0
	out := q.OutputSchema()
	q.OnResult(func(r []byte) {
		mu.Lock()
		rows += len(r) / out.TupleSize()
		mu.Unlock()
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	srv, err := ingest.Listen("127.0.0.1:0", ingest.SinkFunc(q.Insert), s.TupleSize())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()

	c, err := ingest.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tsz := s.TupleSize()
	for off := 0; off < len(stream); off += 500 * tsz {
		end := off + 500*tsz
		if end > len(stream) {
			end = len(stream)
		}
		if err := c.Send(stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close() // waits for the connection to drain into the engine
	eng.Drain()
	eng.Close()

	if srv.BytesIn() != int64(len(stream)) {
		t.Fatalf("server received %d bytes, want %d", srv.BytesIn(), len(stream))
	}
	// 20 tumbling windows × 4 keys.
	if rows != 80 {
		t.Fatalf("rows = %d, want 80", rows)
	}
}
