package main

import (
	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

// shape names the four query shapes the reference evaluator covers.
type shape int

const (
	shapeSelect shape = iota // predicate map, identity projection
	shapeProj                // projection map
	shapeAgg                 // count-window scalar or grouped aggregate
	shapeJoin                // count-window θ-join
)

// querySpec is one registered query of a workload plus what the reference
// evaluator needs to know about it.
type querySpec struct {
	build func() *query.Query
	shape shape
	// size and slide of the count window (aggregate and join shapes).
	size, slide int64
	// grouped aggregates key on a2 and emit count, sum(a1); scalar ones
	// emit avg(a1).
	grouped bool
	// projections is m of PROJ_m.
	projections int
}

// spec is one named workload. Everything here is frozen: later changes are
// compared on these exact settings.
type spec struct {
	name string
	why  string
	// queries run concurrently on one engine; each input of each query is
	// one stream with its own TCP connection.
	queries []querySpec
	phi     int // task size ϕ, bytes
	frame   int // wire frame payload, bytes
	// rate is the open-loop input rate of the rate phase, tuples/s summed
	// over all streams.
	rate float64
	// groups bounds a2 in the generated pool.
	groups int32
	// hybrid adds the emulated GPGPU with vanishing pads and the hls policy.
	hybrid bool
	// durable adds ingest resume + credits through ReconnectClient, epoch
	// checkpoints every 500 ms and an 8 MiB admission budget.
	durable bool
}

const (
	tupleSize = workload.SynTupleSize
	// poolBytes is the pre-generated input replayed cyclically. Its tuple
	// count (2^19) is a multiple of every frame, slide and window used.
	poolBytes  = 16 << 20
	poolTuples = poolBytes / tupleSize
	// verifyTuples go through each stream in the verify phase: two pool
	// cycles, so the replay wrap is covered.
	verifyTuples = 1 << 20
	// joinBand is the width of the band predicate A.a3 < B.a3 < A.a3+band.
	joinBand = 8
	// creditWindow is the window the durable workload's server advertises,
	// in tuples (2 MiB of 32-byte tuples).
	creditWindow = 1 << 16
	// replayWindow is the durable workload's client-side replay buffer. Once
	// it is full — the steady state of a long-lived connection — every Send
	// shifts the whole buffer, so its size sets the cost of a frame. With the
	// client's 16 MiB default a rep at the fixed rate would end before the
	// buffer has filled and would time a state that does not last; 1 MiB
	// fills within the warm-up.
	replayWindow = 1 << 20
)

func selectQuery() querySpec {
	return querySpec{
		build: func() *query.Query { return workload.Select(10, window.NewCount(1024, 1024)) },
		shape: shapeSelect,
	}
}

func aggQuery() querySpec {
	return querySpec{
		build: func() *query.Query { return workload.Agg(query.Avg, window.NewCount(1024, 64)) },
		shape: shapeAgg, size: 1024, slide: 64,
	}
}

func groupByQuery() querySpec {
	return querySpec{
		build: func() *query.Query {
			return workload.GroupBy([]query.AggFunc{query.Count, query.Sum}, 64, window.NewCount(1024, 64))
		},
		shape: shapeAgg, size: 1024, slide: 64, grouped: true,
	}
}

func projQuery() querySpec {
	return querySpec{
		build:       func() *query.Query { return workload.Proj(4, 1, window.NewCount(1024, 1024)) },
		shape:       shapeProj,
		projections: 4,
	}
}

// bandJoinQuery has no equality conjunct, so the nested-loop join runs.
func bandJoinQuery() querySpec {
	w := window.NewCount(128, 128)
	return querySpec{
		build: func() *query.Query {
			a3A, a3B := expr.QCol("A", "a3"), expr.QCol("B", "a3")
			return query.NewBuilder("JOIN-BAND").
				FromAs("SynA", "A", workload.SynSchema, w).
				FromAs("SynB", "B", workload.SynSchema, w).
				Join(expr.And{Preds: []expr.Pred{
					expr.Cmp{Op: expr.Lt, Left: a3A, Right: a3B},
					expr.Cmp{Op: expr.Lt, Left: a3B, Right: expr.Arith{Op: expr.Add, Left: a3A, Right: expr.IntConst(joinBand)}},
				}}).
				SelectAs(expr.QCol("A", "timestamp"), "timestamp").
				SelectAs(a3A, "a3").
				SelectAs(expr.QCol("B", "timestamp"), "ts2").
				MustBuild()
		},
		shape: shapeJoin, size: 128, slide: 128,
	}
}

// workloads lists the six named workloads. Each layer likely to be
// optimised does most of the work in one and little in another; the why
// strings say which.
var workloads = []spec{
	{
		name:    "select",
		why:     "10-predicate selection, 50% selective, identity projection: predicate kernel and output copy dominate, nothing is shredded",
		queries: []querySpec{selectQuery()},
		phi:     256 << 10, frame: 64 << 10, rate: 8e6,
	},
	{
		name:    "agg-slide",
		why:     "sliding avg whose kernel is cheap, so per-frame and per-task fixed costs (decode, ring, shred, cut, queue, reorder) are what is left",
		queries: []querySpec{aggQuery()},
		phi:     64 << 10, frame: 16 << 10, rate: 16e6,
	},
	{
		name:    "agg-durable",
		why:     "agg-slide plus ingest resume and credits, 500 ms checkpoints and an admission budget: the only workload with the durability stack on the hot path",
		queries: []querySpec{aggQuery()},
		phi:     64 << 10, frame: 16 << 10, rate: 4e6,
		durable: true,
	},
	{
		name:    "groupby",
		why:     "64-group sliding count and sum: hash table, window fragments and partial merge dominate; two columns are shredded",
		queries: []querySpec{groupByQuery()},
		phi:     256 << 10, frame: 64 << 10, rate: 4e6, groups: 64,
	},
	{
		name:    "join-band",
		why:     "band theta-join without equality: two ingest servers, pair cuts and a compare-bound nested-loop kernel with modest output",
		queries: []querySpec{bandJoinQuery()},
		phi:     64 << 10, frame: 16 << 10, rate: 0.5e6,
	},
	{
		name:    "hybrid-mix",
		why:     "projection and group-by concurrently on CPU plus emulated GPGPU: the only workload where HLS picks a processor and the five gpu stages run",
		queries: []querySpec{projQuery(), groupByQuery()},
		phi:     256 << 10, frame: 64 << 10, rate: 3e6, groups: 64,
		hybrid: true,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
