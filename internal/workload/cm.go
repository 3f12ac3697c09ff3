package workload

import (
	"math/rand"

	"saber/internal/bql"
	"saber/internal/query"
	"saber/internal/schema"
)

// CMSchema is the Google cluster-monitoring TaskEvents schema (paper
// Appendix A.1).
var CMSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "jobId", Type: schema.Int64},
	schema.Field{Name: "taskId", Type: schema.Int64},
	schema.Field{Name: "machineId", Type: schema.Int64},
	schema.Field{Name: "eventType", Type: schema.Int32},
	schema.Field{Name: "userId", Type: schema.Int32},
	schema.Field{Name: "category", Type: schema.Int32},
	schema.Field{Name: "priority", Type: schema.Int32},
	schema.Field{Name: "cpu", Type: schema.Float32},
	schema.Field{Name: "ram", Type: schema.Float32},
	schema.Field{Name: "disk", Type: schema.Float32},
	schema.Field{Name: "constraints", Type: schema.Int32},
)

// Cluster event types (a subset of the trace's vocabulary).
const (
	CMEventSubmit = 0
	CMEventFail   = 2
	// CMEventSchedule is the paper's eventType == 1 filter in CM2.
	CMEventSchedule = 1
	CMEventFinish   = 4
)

// CMGen synthesises the Google cluster trace's statistical shape:
// timestamped task events across jobs and machines, with a configurable
// task-failure rate that can be surged to replay the trace period used
// in Fig. 16.
type CMGen struct {
	rnd *rand.Rand
	ts  int64
	// FailureRate is the probability that an event is a task failure.
	FailureRate float64
	// Jobs and Machines bound the respective id domains.
	Jobs, Machines int64
	// EventsPerTimeUnit controls timestamp density.
	EventsPerTimeUnit int
	inUnit            int
}

// NewCMGen creates a generator with the trace-like defaults.
func NewCMGen(seed int64) *CMGen {
	return &CMGen{
		rnd:               rand.New(rand.NewSource(seed)),
		FailureRate:       0.02,
		Jobs:              1000,
		Machines:          11000, // the trace's 11,000-machine cluster
		EventsPerTimeUnit: 64,
	}
}

// Next appends n task events to dst.
func (g *CMGen) Next(dst []byte, n int) []byte {
	b := schema.NewTupleBuilder(CMSchema, n)
	for i := 0; i < n; i++ {
		ev := int32(CMEventSchedule)
		switch {
		case g.rnd.Float64() < g.FailureRate:
			ev = CMEventFail
		case g.rnd.Intn(4) == 0:
			ev = CMEventSubmit
		case g.rnd.Intn(8) == 0:
			ev = CMEventFinish
		}
		b.Begin().
			Timestamp(g.ts).
			Int64("jobId", g.rnd.Int63n(g.Jobs)).
			Int64("taskId", g.rnd.Int63()).
			Int64("machineId", g.rnd.Int63n(g.Machines)).
			Int32("eventType", ev).
			Int32("userId", g.rnd.Int31n(100)).
			Int32("category", g.rnd.Int31n(4)).
			Int32("priority", g.rnd.Int31n(12)).
			Float32("cpu", g.rnd.Float32()).
			Float32("ram", g.rnd.Float32()).
			Float32("disk", g.rnd.Float32()).
			Int32("constraints", g.rnd.Int31n(2))
		g.inUnit++
		if g.inUnit >= g.EventsPerTimeUnit {
			g.inUnit = 0
			g.ts++
		}
	}
	return append(dst, b.Bytes()...)
}

// CMStreams names the TaskEvents stream for the SQL front end.
func CMStreams() bql.Streams { return bql.Streams{"TaskEvents": CMSchema} }

// mustParse parses a statically known query; an error is a bug.
func mustParse(name, src string, streams bql.Streams) *query.Query {
	q, err := bql.ParseQuery(name, src, streams)
	if err != nil {
		panic(err)
	}
	return q
}

// CM1 is Appendix A.1 Query 1: CPU usage per category.
func CM1() *query.Query {
	return mustParse("CM1", `
		select timestamp, category, sum(cpu) as totalCpu
		from TaskEvents [range 60 slide 1]
		group by category`, CMStreams())
}

// CM2 is Appendix A.1 Query 2: average requested CPU per job for
// scheduled tasks.
func CM2() *query.Query {
	return mustParse("CM2", `
		select timestamp, jobId, avg(cpu) as avgCpu
		from TaskEvents [range 60 slide 1]
		where eventType == 1
		group by jobId`, CMStreams())
}
