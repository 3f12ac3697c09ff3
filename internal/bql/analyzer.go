package bql

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"saber/internal/overload"
	"saber/internal/query"
	"saber/internal/schema"
)

// Streams maps the stream names a SELECT reads FROM to their schemas.
type Streams map[string]*schema.Schema

// StreamSpec is an analyzed CREATE STREAM: the compiled query plus the
// engine knobs its WITH clause selected.
type StreamSpec struct {
	Query *query.Query
	// Emitter is the resolved relation-to-stream operator: the statement's
	// explicit choice, or the paper's default (RStream for aggregation,
	// IStream otherwise) when none was written.
	Emitter Emitter
	// Overload is the per-query overload override built from WITH
	// (max_queue_bytes=..., shed_policy=..., ...); nil when the statement
	// sets none, which inherits the engine-wide config.
	Overload *overload.Config
	// Into names the sink the stream's output routes to; "" is the
	// default sink.
	Into string
}

// AnalyzeStream compiles a CREATE STREAM against streams — an unknown
// FROM stream is reported at its name, any other semantic error at the
// SELECT keyword — and maps its WITH properties onto per-query overload
// knobs.
func AnalyzeStream(src string, st *CreateStream, streams Streams) (*StreamSpec, error) {
	q, err := st.Select.compile(src, streams)
	if err != nil {
		if _, ok := err.(*Error); !ok {
			err = ErrorAt(src, st.Select.Pos, "%v", err)
		}
		return nil, err
	}
	spec := &StreamSpec{Query: q, Emitter: st.Emitter, Into: st.Into}
	if spec.Emitter == EmitDefault {
		// Paper §2.4: RStream is the natural operator for aggregation
		// (each window yields a fresh relation), IStream for all other
		// query classes.
		if q.IsAggregation() {
			spec.Emitter = EmitRStream
		} else {
			spec.Emitter = EmitIStream
		}
	}
	ov, err := streamOverload(src, st.Props)
	if err != nil {
		return nil, err
	}
	spec.Overload = ov
	return spec, nil
}

// compile binds a copy of the parsed query to the schemas of its FROM
// streams and validates it. Only an unknown stream comes back as a
// positioned *Error.
func (s *Select) compile(src string, streams Streams) (*query.Query, error) {
	q := *s.Query
	q.Inputs = slices.Clone(q.Inputs)
	for i := range q.Inputs {
		sch, ok := streams[q.Inputs[i].Name]
		if !ok {
			return nil, ErrorAt(src, s.From[i], "unknown stream %q", q.Inputs[i].Name)
		}
		q.Inputs[i].Schema = sch
	}
	if len(q.Aggregates) > 0 && len(q.Projection) > 0 {
		return nil, fmt.Errorf("query %s selects non-grouping columns alongside aggregates", q.Name)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// streamOverload builds the per-query overload override from WITH props.
func streamOverload(src string, props []Prop) (*overload.Config, error) {
	var cfg *overload.Config
	ensure := func() *overload.Config {
		if cfg == nil {
			cfg = &overload.Config{}
		}
		return cfg
	}
	for _, pr := range props {
		switch pr.Key {
		case "max_queue_bytes":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, ErrorAt(src, pr.Pos, "max_queue_bytes must be positive, got %d", n)
			}
			ensure().MaxQueueBytes = n
		case "shed_policy":
			pol, err := overload.ParsePolicy(pr.Value)
			if err != nil {
				return nil, ErrorAt(src, pr.Pos, "shed_policy: %v", err)
			}
			ensure().Policy = pol
		case "max_wait_ms":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, ErrorAt(src, pr.Pos, "max_wait_ms must be non-negative, got %d", n)
			}
			ensure().MaxWait = time.Duration(n) * time.Millisecond
		case "seed":
			n, err := pr.Int(src)
			if err != nil {
				return nil, err
			}
			ensure().Seed = n
		default:
			return nil, ErrorAt(src, pr.Pos, "unknown stream property %q (want max_queue_bytes, shed_policy, max_wait_ms or seed)", pr.Key)
		}
	}
	return cfg, nil
}

// Int parses the property's value as an integer; src is the script the
// property was parsed from, for the error position.
func (pr Prop) Int(src string) (int64, error) {
	n, err := strconv.ParseInt(pr.Value, 10, 64)
	if err != nil {
		return 0, ErrorAt(src, pr.Pos, "property %s must be an integer, got %q", pr.Key, pr.Value)
	}
	return n, nil
}
