package workload

import (
	"math"
	"math/rand"

	"saber/internal/bql"
	"saber/internal/expr"
	"saber/internal/query"
	"saber/internal/schema"
	"saber/internal/window"
)

// SGSchema is the DEBS'14 smart-meter reading (paper Appendix A.2), with
// a padding attribute as in the paper's 32-byte layout.
var SGSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "value", Type: schema.Float32},
	schema.Field{Name: "property", Type: schema.Int32},
	schema.Field{Name: "plug", Type: schema.Int32},
	schema.Field{Name: "household", Type: schema.Int32},
	schema.Field{Name: "house", Type: schema.Int32},
	schema.Field{Name: "padding", Type: schema.Int32},
)

// SGGen synthesises smart-meter load readings: each (house, household,
// plug) has a base load plus diurnal-ish oscillation and noise, so local
// averages genuinely differ from the global average and SG3 finds
// outliers.
type SGGen struct {
	rnd    *rand.Rand
	ts     int64
	Houses int32
	// PlugsPerHousehold and HouseholdsPerHouse shape the hierarchy.
	PlugsPerHousehold, HouseholdsPerHouse int32
	ReadingsPerTimeUnit                   int
	inUnit                                int
}

// NewSGGen creates the generator.
func NewSGGen(seed int64) *SGGen {
	return &SGGen{
		rnd:                 rand.New(rand.NewSource(seed)),
		Houses:              40,
		PlugsPerHousehold:   4,
		HouseholdsPerHouse:  4,
		ReadingsPerTimeUnit: 64,
	}
}

// Next appends n readings to dst.
func (g *SGGen) Next(dst []byte, n int) []byte {
	b := schema.NewTupleBuilder(SGSchema, n)
	for i := 0; i < n; i++ {
		house := g.rnd.Int31n(g.Houses)
		household := g.rnd.Int31n(g.HouseholdsPerHouse)
		plug := g.rnd.Int31n(g.PlugsPerHousehold)
		base := float64(house%7) * 10
		phase := float64(g.ts%3600) / 3600 * 2 * math.Pi
		load := base + 30 + 20*math.Sin(phase+float64(plug)) + g.rnd.Float64()*5
		b.Begin().
			Timestamp(g.ts).
			Float32("value", float32(load)).
			Int32("property", 1). // load measurement
			Int32("plug", plug).
			Int32("household", household).
			Int32("house", house).
			Int32("padding", 0)
		g.inUnit++
		if g.inUnit >= g.ReadingsPerTimeUnit {
			g.inUnit = 0
			g.ts++
		}
	}
	return append(dst, b.Bytes()...)
}

// SGStreams names the smart-grid streams for the SQL front end.
func SGStreams() bql.Streams {
	return bql.Streams{
		"SmartGridStr":  SGSchema,
		"GlobalLoadStr": SGGlobalSchema,
		"LocalLoadStr":  SGLocalSchema,
	}
}

// SGGlobalSchema is SG1's output (GlobalLoadStr).
var SGGlobalSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "globalAvgLoad", Type: schema.Float32},
)

// SGLocalSchema is SG2's output (LocalLoadStr).
var SGLocalSchema = schema.MustNew(
	schema.Field{Name: "timestamp", Type: schema.Int64},
	schema.Field{Name: "plug", Type: schema.Int32},
	schema.Field{Name: "household", Type: schema.Int32},
	schema.Field{Name: "house", Type: schema.Int32},
	schema.Field{Name: "localAvgLoad", Type: schema.Float32},
)

// SG1 is Appendix A.2 Query 1: the sliding global load average.
// windowScale shrinks the paper's 3600-unit window for quick runs
// (1 reproduces the paper).
func SG1(windowScale int64) *query.Query {
	return query.NewBuilder("SG1").
		From("SmartGridStr", SGSchema, window.NewTime(max64(3600/windowScale, 2), 1)).
		Aggregate(query.Avg, expr.Col("value"), "globalAvgLoad").
		MustBuild()
}

// SG2 is Appendix A.2 Query 2: sliding load average per plug.
func SG2(windowScale int64) *query.Query {
	return query.NewBuilder("SG2").
		From("SmartGridStr", SGSchema, window.NewTime(max64(3600/windowScale, 2), 1)).
		Aggregate(query.Avg, expr.Col("value"), "localAvgLoad").
		GroupBy("plug", "household", "house").
		MustBuild()
}

// SG3Join is the join core of Appendix A.2 Query 3: local averages that
// exceed the global average, per time unit. It consumes SG1's and SG2's
// output streams. (The outer count-per-house aggregation is SG3Count.)
func SG3Join() *query.Query {
	return query.NewBuilder("SG3join").
		FromAs("LocalLoadStr", "L", SGLocalSchema, window.NewTime(1, 1)).
		FromAs("GlobalLoadStr", "G", SGGlobalSchema, window.NewTime(1, 1)).
		Join(expr.Cmp{Op: expr.Gt, Left: expr.Col("localAvgLoad"), Right: expr.Col("globalAvgLoad")}).
		SelectAs(expr.QCol("L", "timestamp"), "timestamp").
		SelectAs(expr.QCol("L", "house"), "house").
		MustBuild()
}

// SG3Count is the outer aggregation of Query 3: outlier count per house.
func SG3Count() *query.Query {
	outlier := schema.MustNew(
		schema.Field{Name: "timestamp", Type: schema.Int64},
		schema.Field{Name: "house", Type: schema.Int32},
	)
	return query.NewBuilder("SG3").
		From("OutlierStr", outlier, window.NewTime(1, 1)).
		CountAll("count").
		GroupBy("house").
		MustBuild()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
