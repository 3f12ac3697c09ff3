package catalog

import (
	"strconv"

	"saber/internal/bql"
	"saber/internal/schema"
	"saber/internal/workload"
)

// SourceSpec is an analyzed CREATE SOURCE.
type SourceSpec struct {
	Name string
	Type string // "gen" or "tcp"
	// Schema is the tuple layout of the stream this source feeds, and
	// SchemaName the workload key it was resolved from (syn, cm, sg, lrb).
	Schema     *schema.Schema
	SchemaName string
	// Gen-source knobs.
	Seed     int64
	Rate     float64 // tuples/sec; 0 = as fast as the engine admits
	Count    int64   // total tuples to emit; 0 = unbounded
	Vehicles int     // lrb only
	// Tcp-source knob.
	Addr string
}

// SinkSpec is an analyzed CREATE SINK.
type SinkSpec struct {
	Name string
	Type string // "null" or "file"
	Path string // file only
}

// genSchemas maps the gen/schema property values onto the built-in
// workload schemas.
var genSchemas = map[string]*schema.Schema{
	"syn": workload.SynSchema,
	"cm":  workload.CMSchema,
	"sg":  workload.SGSchema,
	"lrb": workload.LRBSchema,
}

// AnalyzeSource resolves a CREATE SOURCE into a runnable spec; errors are
// positioned in src, the statement's script.
func AnalyzeSource(src string, st *bql.CreateSource) (*SourceSpec, error) {
	spec := &SourceSpec{Name: st.Name, Type: st.Type}
	switch st.Type {
	case "gen", "tcp":
	default:
		return nil, bql.ErrorAt(src, st.Pos, "source %s: unknown type %q (want gen or tcp)", st.Name, st.Type)
	}
	schemaKey := ""
	for _, pr := range st.Props {
		switch {
		case pr.Key == "gen" && st.Type == "gen":
			schemaKey = pr.Value
		case pr.Key == "schema" && st.Type == "tcp":
			schemaKey = pr.Value
		case pr.Key == "seed" && st.Type == "gen":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			spec.Seed = n
		case pr.Key == "rate" && st.Type == "gen":
			f, err := strconv.ParseFloat(pr.Value, 64)
			if err != nil || f < 0 {
				return nil, bql.ErrorAt(src, pr.Pos, "rate must be a non-negative number, got %q", pr.Value)
			}
			spec.Rate = f
		case pr.Key == "count" && st.Type == "gen":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, bql.ErrorAt(src, pr.Pos, "count must be non-negative, got %d", n)
			}
			spec.Count = n
		case pr.Key == "vehicles" && st.Type == "gen":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, bql.ErrorAt(src, pr.Pos, "vehicles must be positive, got %d", n)
			}
			spec.Vehicles = int(n)
		case pr.Key == "addr" && st.Type == "tcp":
			spec.Addr = pr.Value
		default:
			return nil, bql.ErrorAt(src, pr.Pos, "unknown property %q for %s source", pr.Key, st.Type)
		}
	}
	if schemaKey == "" {
		if st.Type == "gen" {
			return nil, bql.ErrorAt(src, st.Pos, "source %s: gen source needs gen=syn|cm|sg|lrb", st.Name)
		}
		return nil, bql.ErrorAt(src, st.Pos, "source %s: tcp source needs schema=syn|cm|sg|lrb", st.Name)
	}
	sch, ok := genSchemas[schemaKey]
	if !ok {
		return nil, bql.ErrorAt(src, st.Pos, "source %s: unknown generator %q (want syn, cm, sg or lrb)", st.Name, schemaKey)
	}
	spec.Schema, spec.SchemaName = sch, schemaKey
	if st.Type == "tcp" && spec.Addr == "" {
		return nil, bql.ErrorAt(src, st.Pos, "source %s: tcp source needs addr='host:port'", st.Name)
	}
	return spec, nil
}

// AnalyzeSink resolves a CREATE SINK into a runnable spec; errors are
// positioned in src, the statement's script.
func AnalyzeSink(src string, st *bql.CreateSink) (*SinkSpec, error) {
	spec := &SinkSpec{Name: st.Name, Type: st.Type}
	switch st.Type {
	case "null", "file":
	default:
		return nil, bql.ErrorAt(src, st.Pos, "sink %s: unknown type %q (want null or file)", st.Name, st.Type)
	}
	for _, pr := range st.Props {
		switch {
		case pr.Key == "path" && st.Type == "file":
			spec.Path = pr.Value
		default:
			return nil, bql.ErrorAt(src, pr.Pos, "unknown property %q for %s sink", pr.Key, st.Type)
		}
	}
	if st.Type == "file" && spec.Path == "" {
		return nil, bql.ErrorAt(src, st.Pos, "sink %s: file sink needs path='...'", st.Name)
	}
	return spec, nil
}

// Gen is the common interface of the built-in workload generators: fill
// dst with n tuples and return it.
type Gen interface {
	Next(dst []byte, n int) []byte
}

// NewGen constructs the seeded workload generator for a gen source.
// Distinct sources get independent deterministic streams via their seeds,
// which is also what makes crash-restart replay reproducible.
func (s *SourceSpec) NewGen() Gen {
	switch s.SchemaName {
	case "syn":
		return workload.NewSynGen(s.Seed)
	case "cm":
		return workload.NewCMGen(s.Seed)
	case "sg":
		return workload.NewSGGen(s.Seed)
	case "lrb":
		v := s.Vehicles
		if v == 0 {
			v = 64
		}
		return workload.NewLRBGen(s.Seed, v)
	}
	return nil
}
