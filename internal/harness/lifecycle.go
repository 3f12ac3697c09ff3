package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"saber/internal/catalog"
	"saber/internal/engine"
	"saber/internal/workload"
)

// LifecycleConfig tunes one dynamic-lifecycle stress run: a catalog-
// managed engine whose query set churns (CREATE / PAUSE / RESUME / DROP
// through live BQL DDL) while a paced generator source streams, with a
// per-query conservation verdict for every stream — the ones that
// survive to quiesce and the ones dropped mid-run alike.
type LifecycleConfig struct {
	// Seed drives the source payload and the churn schedule.
	Seed int64
	// Tuples bounds the generated source, so the run self-terminates.
	// Default 60000.
	Tuples int
	// Rate paces the source (tuples/sec) so the DDL churn lands
	// genuinely mid-stream. Default 300000.
	Rate int
	// Engine configures the engine. CPUWorkers and TaskSize default to 4
	// and 4096; the run is always unpadded.
	Engine engine.Config
	// BaseStreams is the number of streams registered at boot. Default 3.
	BaseStreams int
	// Rounds is the number of churn rounds; each creates a stream,
	// pauses and resumes a seeded base stream, and drops the previous
	// round's creation. Default 4.
	Rounds int
	// LeakSlot arms the mutation self-test: after the engine quiesces, a
	// result slot is marked full behind the drainer's back, and the
	// per-stream quiesce check is expected to flag it.
	LeakSlot bool
}

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tuples <= 0 {
		c.Tuples = 60000
	}
	if c.Rate <= 0 {
		c.Rate = 300000
	}
	c.Engine = harnessEngine(c.Engine, 4096, 0, nil)
	if c.BaseStreams <= 0 {
		c.BaseStreams = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	return c
}

// LifecycleReport aggregates a dynamic-lifecycle run's counters and
// violations.
type LifecycleReport struct {
	Seed    int64
	Created int // streams created mid-run
	Dropped int // streams dropped mid-run
	Pauses  int // pause/resume cycles applied

	TuplesIn  int64 // summed over every stream, live and dropped
	TuplesOut int64

	Violations []error
}

// Err joins the violations into one error, or returns nil.
func (r *LifecycleReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("lifecycle(seed=%d): %w", r.Seed, errors.Join(r.Violations...))
}

// String summarises the run for logs.
func (r *LifecycleReport) String() string {
	return fmt.Sprintf("seed=%d created=%d dropped=%d pauses=%d tuples=%d/%d violations=%d",
		r.Seed, r.Created, r.Dropped, r.Pauses, r.TuplesIn, r.TuplesOut, len(r.Violations))
}

// lifeStream tracks one catalog stream's identity-conservation evidence:
// a tumbling SELECT * emits every admitted tuple exactly once, so at its
// quiesce (end of stream, or the drop boundary) in == out + shed must
// hold, and the tap must have seen exactly what the engine counted out.
type lifeStream struct {
	name string
	h    *engine.Handle
	out  atomic.Int64 // tuples seen by the tap
}

// RunLifecycle executes one dynamic-lifecycle stress run: boot a catalog
// from a script, churn the query set through live DDL while the paced
// source streams, quiesce, and check per-query conservation for every
// stream that ever existed. Violations are data in the report; the
// returned error is reserved for configuration mistakes.
func RunLifecycle(cfg LifecycleConfig) (*LifecycleReport, error) {
	cfg = cfg.withDefaults()
	rep := &LifecycleReport{Seed: cfg.Seed}
	tsz := int64(workload.SynSchema.TupleSize())

	eng := engine.New(cfg.Engine)
	m := catalog.New(eng)

	var script strings.Builder
	fmt.Fprintf(&script, "CREATE SOURCE S TYPE gen WITH (gen='syn', seed=%d, rate=%d, count=%d);\n",
		cfg.Seed, cfg.Rate, cfg.Tuples)
	for i := 0; i < cfg.BaseStreams; i++ {
		// Tumbling identity windows of varied sizes: every admitted tuple
		// is emitted exactly once, so conservation is exact per stream.
		w := 32 << uint(i%4)
		fmt.Fprintf(&script, "CREATE STREAM base%d AS SELECT * FROM S [rows %d slide %d];\n", i, w, w)
	}
	if err := m.ExecScript(script.String()); err != nil {
		return nil, err
	}

	track := func(name string) (*lifeStream, error) {
		h, err := m.Handle(name)
		if err != nil {
			return nil, err
		}
		ls := &lifeStream{name: name, h: h}
		if err := m.Tap(name, func(rows []byte) {
			ls.out.Add(int64(len(rows)) / tsz)
		}); err != nil {
			return nil, err
		}
		return ls, nil
	}
	var live, dropped []*lifeStream
	for i := 0; i < cfg.BaseStreams; i++ {
		ls, err := track(fmt.Sprintf("base%d", i))
		if err != nil {
			return nil, err
		}
		live = append(live, ls)
	}

	if err := eng.Start(); err != nil {
		return nil, err
	}
	m.StartFeeds()

	// Churn: spread the rounds across the paced run so every DDL lands
	// mid-stream. Each round creates a stream (whose per-tap feeder
	// replays the full deterministic source from tuple zero), cycles a
	// seeded base stream through pause/resume, and drops the previous
	// round's creation while it is still consuming.
	runFor := time.Duration(float64(cfg.Tuples) / float64(cfg.Rate) * float64(time.Second))
	step := runFor / time.Duration(cfg.Rounds+1)
	rnd := rand.New(rand.NewSource(cfg.Seed ^ 0x11fec1c1e))
	var prev *lifeStream
	for round := 0; round < cfg.Rounds; round++ {
		time.Sleep(step)
		name := fmt.Sprintf("dyn%d", round)
		w := 96
		if _, err := m.Exec(fmt.Sprintf("CREATE STREAM %s AS SELECT * FROM S [rows %d slide %d];", name, w, w)); err != nil {
			return nil, fmt.Errorf("round %d create: %w", round, err)
		}
		ls, err := track(name)
		if err != nil {
			return nil, err
		}
		rep.Created++

		base := fmt.Sprintf("base%d", rnd.Intn(cfg.BaseStreams))
		if _, err := m.Exec("PAUSE STREAM " + base + ";"); err != nil {
			return nil, fmt.Errorf("round %d pause: %w", round, err)
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := m.Exec("RESUME STREAM " + base + ";"); err != nil {
			return nil, fmt.Errorf("round %d resume: %w", round, err)
		}
		rep.Pauses++

		if prev != nil {
			if _, err := m.Exec("DROP STREAM " + prev.name + ";"); err != nil {
				return nil, fmt.Errorf("round %d drop: %w", round, err)
			}
			dropped = append(dropped, prev)
			rep.Dropped++
		}
		prev = ls
	}
	if prev != nil {
		live = append(live, prev)
	}

	m.WaitFeeds()
	eng.Drain()
	m.Close()
	eng.Close()

	if cfg.LeakSlot {
		// Mutation self-test: plant the exact state the quiesce sweep
		// exists to catch and let the checks below find it.
		live[0].h.InjectSlotLeak()
	}

	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Errorf(format, args...))
	}
	for _, ls := range live {
		st := ls.h.Stats()
		in := st.BytesIn / tsz
		rep.TuplesIn += in
		rep.TuplesOut += st.TuplesOut
		if err := ls.h.CheckQuiesced(); err != nil {
			violate("%s quiesce: %w", ls.name, err)
		}
		// Every live stream's feeder replayed the full bounded source —
		// including the ones created mid-run.
		if in != int64(cfg.Tuples) {
			violate("%s admitted %d of %d tuples", ls.name, in, cfg.Tuples)
		}
		if in != st.TuplesOut+st.TuplesShed {
			violate("%s conservation: %d in != %d out + %d shed", ls.name, in, st.TuplesOut, st.TuplesShed)
		}
		if got := ls.out.Load(); got != st.TuplesOut {
			violate("%s tap saw %d tuples, engine emitted %d", ls.name, got, st.TuplesOut)
		}
	}
	for _, ls := range dropped {
		st := ls.h.Stats()
		in := st.BytesIn / tsz
		rep.TuplesIn += in
		rep.TuplesOut += st.TuplesOut
		// Conservation at the drop boundary: everything admitted before
		// the drop was either emitted or accounted shed, and every created
		// task drained.
		d := ls.h.Debug()
		if d.Drained != d.TasksCreated {
			violate("%s (dropped) drained %d of %d tasks", ls.name, d.Drained, d.TasksCreated)
		}
		if in != st.TuplesOut+st.TuplesShed {
			violate("%s (dropped) conservation: %d in != %d out + %d shed", ls.name, in, st.TuplesOut, st.TuplesShed)
		}
		if got := ls.out.Load(); got != st.TuplesOut {
			violate("%s (dropped) tap saw %d tuples, engine emitted %d", ls.name, got, st.TuplesOut)
		}
	}
	return rep, nil
}
