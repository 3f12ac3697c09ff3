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

// ChurnPhase replaces the workload feed with a catalog-managed engine
// whose query set churns (CREATE / PAUSE / RESUME / DROP through live
// BQL DDL) while a paced generator source of Config.Tuples tuples
// streams, with a per-query conservation verdict for every stream — the
// ones that survive to quiesce and the ones dropped mid-run alike. The
// engine is Config.Engine; Seed drives the source payload and the churn
// schedule. The catalog script defines the queries and the source feeds
// them, so checkChurn refuses the Config fields that shape the workload
// feed.
type ChurnPhase struct {
	// LeakSlot arms the mutation self-test: after the engine quiesces, a
	// result slot is marked full behind the drainer's back, and the
	// per-stream quiesce check is expected to flag it.
	LeakSlot bool
}

// The churn schedule: churnBaseStreams streams registered at boot,
// churnRounds rounds (each creates a stream, pauses and resumes a seeded
// base stream, and drops the previous round's creation), and the
// source paced at churnRate tuples/s so the DDL lands mid-stream.
const (
	churnBaseStreams = 3
	churnRounds      = 4
	churnRate        = 300000
)

// checkChurn refuses a churn Config that sets fields the churn phase
// would ignore.
func checkChurn(cfg Config) error {
	switch {
	case cfg.Crash != nil:
		return errors.New("harness: the crash and churn phases do not combine")
	case cfg.Workload != "" || cfg.Queries > 1 || cfg.WindowSize != 0 || cfg.MaxJitter != 0 || cfg.MinProcess != 0:
		return errors.New("harness: a churn run's queries come from its catalog script: Workload, Queries, WindowSize, MaxJitter and MinProcess do not apply")
	case cfg.GPU || cfg.GPURate != 0 || cfg.Ingest || cfg.SourceCredits != 0 || cfg.PacedRate != nil || cfg.MutateOutput != nil:
		return errors.New("harness: a churn run's catalog source feeds a CPU engine: GPU, GPURate, Ingest, SourceCredits, PacedRate and MutateOutput do not apply")
	}
	return nil
}

// lifeStream tracks one catalog stream's identity-conservation evidence:
// a tumbling SELECT * emits every admitted tuple exactly once, so at its
// quiesce (end of stream, or the drop boundary) in == out + shed must
// hold, and the tap must have seen exactly what the engine counted out.
type lifeStream struct {
	name    string
	h       *engine.Handle
	out     atomic.Int64 // tuples seen by the tap
	dropped bool
}

// runChurn boots a catalog from a script, churns the query set through
// live DDL while the paced source streams, quiesces, and checks
// per-query conservation for every stream that ever existed.
func runChurn(cfg Config, rep *Report) error {
	tsz := int64(workload.SynSchema.TupleSize())

	eng := engine.New(cfg.Engine)
	m := catalog.New(eng)

	var script strings.Builder
	fmt.Fprintf(&script, "CREATE SOURCE S TYPE gen WITH (gen='syn', seed=%d, rate=%d, count=%d);\n",
		cfg.Seed, churnRate, cfg.Tuples)
	for i := 0; i < churnBaseStreams; i++ {
		// Tumbling identity windows of varied sizes: every admitted tuple
		// is emitted exactly once, so conservation is exact per stream.
		w := 32 << uint(i%4)
		fmt.Fprintf(&script, "CREATE STREAM base%d AS SELECT * FROM S [rows %d slide %d];\n", i, w, w)
	}
	if err := m.ExecScript(script.String()); err != nil {
		return err
	}

	var streams []*lifeStream // every stream that ever existed, base0 first
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
		streams = append(streams, ls)
		return ls, nil
	}
	for i := 0; i < churnBaseStreams; i++ {
		if _, err := track(fmt.Sprintf("base%d", i)); err != nil {
			return err
		}
	}

	if err := eng.Start(); err != nil {
		return err
	}
	m.StartFeeds()

	// Churn: spread the rounds across the paced run so every DDL lands
	// mid-stream. Each round creates a stream (whose per-tap feeder
	// replays the full deterministic source from tuple zero), cycles a
	// seeded base stream through pause/resume, and drops the previous
	// round's creation while it is still consuming.
	runFor := time.Duration(float64(cfg.Tuples) / float64(churnRate) * float64(time.Second))
	step := runFor / time.Duration(churnRounds+1)
	rnd := rand.New(rand.NewSource(cfg.Seed ^ 0x11fec1c1e))
	var prev *lifeStream
	for round := 0; round < churnRounds; round++ {
		time.Sleep(step)
		name := fmt.Sprintf("dyn%d", round)
		w := 96
		if _, err := m.Exec(fmt.Sprintf("CREATE STREAM %s AS SELECT * FROM S [rows %d slide %d];", name, w, w)); err != nil {
			return fmt.Errorf("round %d create: %w", round, err)
		}
		ls, err := track(name)
		if err != nil {
			return err
		}
		rep.StreamsCreated++

		base := fmt.Sprintf("base%d", rnd.Intn(churnBaseStreams))
		if _, err := m.Exec("PAUSE STREAM " + base + ";"); err != nil {
			return fmt.Errorf("round %d pause: %w", round, err)
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := m.Exec("RESUME STREAM " + base + ";"); err != nil {
			return fmt.Errorf("round %d resume: %w", round, err)
		}
		rep.Pauses++

		if prev != nil {
			if _, err := m.Exec("DROP STREAM " + prev.name + ";"); err != nil {
				return fmt.Errorf("round %d drop: %w", round, err)
			}
			prev.dropped = true
			rep.StreamsDropped++
		}
		prev = ls
	}

	m.WaitFeeds()
	eng.Drain()
	m.Close()
	eng.Close()

	if cfg.Churn.LeakSlot {
		// Mutation self-test: plant the exact state the quiesce sweep
		// exists to catch and let the checks below find it.
		streams[0].h.InjectSlotLeak()
	}

	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Errorf(format, args...))
	}
	for _, ls := range streams {
		st := ls.h.Stats()
		in := st.BytesIn / tsz
		rep.TuplesIn += in
		rep.TuplesOut += st.TuplesOut
		name := ls.name
		if ls.dropped {
			// Conservation at the drop boundary: everything admitted before
			// the drop was either emitted or accounted shed, and every
			// created task drained.
			name += " (dropped)"
			if d := ls.h.Debug(); d.Drained != d.TasksCreated {
				violate("%s drained %d of %d tasks", name, d.Drained, d.TasksCreated)
			}
		} else {
			if err := ls.h.CheckQuiesced(); err != nil {
				violate("%s quiesce: %w", name, err)
			}
			// Every live stream's feeder replayed the full bounded source —
			// including the ones created mid-run.
			if in != int64(cfg.Tuples) {
				violate("%s admitted %d of %d tuples", name, in, cfg.Tuples)
			}
		}
		if in != st.TuplesOut+st.TuplesShed {
			violate("%s conservation: %d in != %d out + %d shed", name, in, st.TuplesOut, st.TuplesShed)
		}
		if got := ls.out.Load(); got != st.TuplesOut {
			violate("%s tap saw %d tuples, engine emitted %d", name, got, st.TuplesOut)
		}
	}
	return nil
}
