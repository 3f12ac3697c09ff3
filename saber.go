// Package saber is a from-scratch Go reproduction of SABER, the
// window-based hybrid relational stream processing engine for
// heterogeneous architectures (Koliousis et al., SIGMOD 2016).
//
// SABER executes windowed streaming SQL queries as fixed-size query tasks
// that can run on any available processor — a pool of CPU workers or a
// (here: simulated) GPGPU — and schedules them with the heterogeneous
// lookahead scheduling (HLS) algorithm, which continuously measures per-
// query task throughput on each processor instead of relying on an
// offline performance model.
//
// Quick start:
//
//	eng := saber.New(saber.Config{CPUWorkers: 4})
//	eng.DeclareStream("S", saber.MustSchema(
//		saber.Field{Name: "timestamp", Type: saber.Int64},
//		saber.Field{Name: "value", Type: saber.Float32},
//	))
//	q, err := eng.Query("avg", `
//		select timestamp, avg(value) as avgValue
//		from S [rows 1024 slide 256]`)
//	q.OnResult(func(rows []byte) { ... })
//	eng.Start()
//	q.Insert(tuples)
//	eng.Drain()
//	eng.Close()
//
// Config is the engine's own configuration type. Adaptive task sizing
// and overload protection are armed by setting Config.Adapt
// (AdaptConfig) and Config.Overload (OverloadConfig), checkpointing by
// Config.CheckpointDir; Config.DisablePad runs at native speed instead
// of padding to the calibrated performance model.
//
// Queries are written in the windowed streaming SQL of the paper's
// Appendix A. One front end, internal/bql, parses both the bare SELECTs
// Engine.Query takes and the statement scripts (CREATE SOURCE/STREAM/
// SINK, DROP, PAUSE, RESUME) Engine.BootScript and Catalog.Exec run.
// Syntax errors and unknown streams name their position:
// "bql: line L col C: msg".
//
// See DESIGN.md for the architecture and the mapping from the paper's
// sections to the packages under internal/.
package saber

import (
	"fmt"
	"net/http"

	"saber/internal/adapt"
	"saber/internal/bql"
	"saber/internal/catalog"
	"saber/internal/ckpt"
	"saber/internal/engine"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/overload"
	"saber/internal/query"
	"saber/internal/sched"
	"saber/internal/schema"
	"saber/internal/window"
)

// Re-exported substrate types, so applications only import this package.
type (
	// Schema describes a stream's fixed-width binary tuple layout.
	Schema = schema.Schema
	// Field is one attribute of a tuple schema.
	Field = schema.Field
	// Type is a primitive field type.
	Type = schema.Type
	// Window is a window definition ω(size, slide).
	Window = window.Def
	// Query is a validated logical query.
	Query = query.Query
	// QueryBuilder builds queries programmatically (the SQL front end
	// covers the common cases).
	QueryBuilder = query.Builder
	// UDF is a user-defined window operator function (paper §2.4),
	// installed with QueryBuilder.UDF.
	UDF = query.UDF
	// Stats is a per-query counter snapshot.
	Stats = engine.Stats
	// GPUDevice is a simulated GPGPU accelerator.
	GPUDevice = gpu.Device
	// GPUConfig configures a simulated GPGPU.
	GPUConfig = gpu.Config
	// ModelParams is the calibrated performance model.
	ModelParams = model.Params
	// Processor identifies a processor class for static scheduling.
	Processor = sched.Processor
	// MetricsRegistry is the engine's observability registry: every
	// counter, gauge and latency histogram under the canonical
	// saber.* naming scheme (see DESIGN.md §9).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time view of a MetricsRegistry.
	MetricsSnapshot = obs.Snapshot
	// TraceRecord is one finished task's lifecycle trace from the
	// tracer's postmortem ring.
	TraceRecord = obs.TraceRecord
	// Config tunes the engine. It is internal/engine's Config, where every
	// field is documented; the zero value reproduces the paper's setup (15
	// CPU workers, 1 MiB tasks, HLS scheduling, calibrated model).
	Config = engine.Config
	// AdaptConfig enables adaptive task sizing (dynamic ϕ) when set as
	// Config.Adapt: a controller resizes ϕ within [MinPhi, MaxPhi] to keep
	// the end-to-end p99 latency under SLO.
	AdaptConfig = adapt.Config
	// OverloadConfig enables overload protection when set as
	// Config.Overload: a per-query, per-input queue budget
	// (MaxQueueBytes), the shedding Policy applied once the bounded
	// admission wait (MaxWait) expires, and a stall watchdog.
	OverloadConfig = overload.Config
	// ShedPolicy selects what overload protection does when a query's
	// input queue exceeds its budget and the bounded admission wait
	// expires (see OverloadConfig.MaxQueueBytes). With Config.Adapt also
	// set, shedding actuates only once resizing ϕ has run out of room.
	ShedPolicy = overload.Policy
)

// Field type constants.
const (
	Int32   = schema.Int32
	Int64   = schema.Int64
	Float32 = schema.Float32
	Float64 = schema.Float64
)

// Processor classes for Config.StaticAssign.
const (
	OnCPU = sched.CPU
	OnGPU = sched.GPU
)

// Shedding policies for OverloadConfig.Policy.
const (
	// ShedNone never drops data: a full queue blocks Insert (quiesce-
	// aware backpressure) until it drains below budget.
	ShedNone = overload.ShedNone
	// ShedOldest sheds the query's oldest queued task first, bounding
	// result staleness under sustained overload. A paused query has no
	// queued task to shed: its over-budget Insert blocks until Resume.
	ShedOldest = overload.ShedOldest
	// ShedWeighted drops incoming chunks probabilistically, weighted per
	// input side, so hot sources absorb more of the loss.
	ShedWeighted = overload.ShedWeighted
)

// ParseShedPolicy parses a -shed-policy flag value: "none", "oldest" or
// "weighted".
func ParseShedPolicy(s string) (ShedPolicy, error) { return overload.ParsePolicy(s) }

// NewSchema builds a schema from fields; the first field of a stream
// schema must be a long timestamp.
func NewSchema(fields ...Field) (*Schema, error) { return schema.New(fields...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(fields ...Field) *Schema { return schema.MustNew(fields...) }

// CountWindow returns a count-based window of size tuples sliding by
// slide tuples.
func CountWindow(size, slide int64) Window { return window.NewCount(size, slide) }

// TimeWindow returns a time-based window over the tuples' logical
// timestamps.
func TimeWindow(size, slide int64) Window { return window.NewTime(size, slide) }

// UnboundedWindow returns the whole-stream window (per-tuple streaming
// operators).
func UnboundedWindow() Window { return window.NewUnbounded() }

// NewQuery starts a programmatic query builder.
func NewQuery(name string) *QueryBuilder { return query.NewBuilder(name) }

// OpenGPU starts a simulated GPGPU device. Pass it in Config.GPU and
// Close it after the engine.
func OpenGPU(cfg GPUConfig) *GPUDevice { return gpu.Open(cfg) }

// DefaultModel returns the paper-calibrated performance model; use
// Scaled to shrink experiment wall time.
func DefaultModel() ModelParams { return model.Default() }

// Engine is a SABER instance: declare streams, register queries, start,
// ingest, drain.
type Engine struct {
	e       *engine.Engine
	streams bql.Streams
}

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{e: engine.New(cfg), streams: bql.Streams{}}
}

// DeclareStream names a stream schema for use in SQL FROM clauses.
func (e *Engine) DeclareStream(name string, s *Schema) {
	e.streams[name] = s
}

// Query parses a SELECT against the declared streams, compiles it and
// registers it. Must be called before Start.
func (e *Engine) Query(name, src string) (*QueryHandle, error) {
	q, err := bql.ParseQuery(name, src, e.streams)
	if err != nil {
		return nil, err
	}
	return e.RegisterQuery(q)
}

// MustQuery is Query that panics on error.
func (e *Engine) MustQuery(name, src string) *QueryHandle {
	h, err := e.Query(name, src)
	if err != nil {
		panic(err)
	}
	return h
}

// RegisterQuery registers a programmatically built query.
func (e *Engine) RegisterQuery(q *Query) (*QueryHandle, error) {
	h, err := e.e.Register(q)
	if err != nil {
		return nil, err
	}
	return &QueryHandle{h: h}, nil
}

// Start launches the worker threads and fixes the scheduling policy.
// Queries may still be registered on the running engine, except under the
// static policy, whose assignments are fixed at Start.
func (e *Engine) Start() error { return e.e.Start() }

// Checkpoint cuts one durable epoch immediately (the automatic
// coordinator, when enabled, does this on its own). After it returns,
// every QueryHandle.Committed reflects the new epoch.
func (e *Engine) Checkpoint() error {
	_, err := e.e.Checkpoint()
	return err
}

// RestoreInfo summarises a successful Restore.
type RestoreInfo = engine.RestoreInfo

// ErrNoCheckpoint is returned (wrapped) by Restore when the directory
// holds no loadable epoch — a cold start, not a failure.
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// Restore rebuilds engine state from the newest valid checkpoint in dir.
// Call it after registering the same queries (matched by name) and
// before Start. On success, resume feeding each query from
// QueryHandle.InputCursor and keep downstream output up to
// QueryHandle.Committed — together that yields exactly-once restart.
func (e *Engine) Restore(dir string) (*RestoreInfo, error) { return e.e.Restore(dir) }

// Drain finishes all buffered and in-flight work and flushes open
// windows. Call after the last Insert.
func (e *Engine) Drain() { e.e.Drain() }

// Close stops the engine's workers.
func (e *Engine) Close() { e.e.Close() }

// QueueLen reports the system-wide task queue depth (telemetry).
func (e *Engine) QueueLen() int { return e.e.QueueLen() }

// TaskSize reports the live task size ϕ in bytes — constant unless
// adaptive sizing (Config.Adapt) is enabled.
func (e *Engine) TaskSize() int { return e.e.TaskSize() }

// Metrics returns the engine's observability registry. Always non-nil;
// snapshot it for programmatic access, or serve MetricsHandler for the
// admin endpoint.
func (e *Engine) Metrics() *MetricsRegistry { return e.e.Metrics() }

// MetricsHandler returns the admin endpoint: /varz (JSON snapshot),
// /metrics (Prometheus text format), /traces (recent task traces) and
// /debug/pprof. Mount it on an http.Server of your choosing; it is
// read-only and safe to serve while the engine runs.
func (e *Engine) MetricsHandler() http.Handler {
	return obs.Handler(e.e.Metrics(), e.e.Tracer())
}

// RecentTraces returns the most recent task lifecycle traces, newest
// first (a bounded postmortem ring of 128 records).
func (e *Engine) RecentTraces() []TraceRecord { return e.e.Tracer().Recent() }

// StallReport returns the stall watchdog's most recent postmortem — the
// pipeline state and recent task traces captured when buffered input
// stopped draining — or "" when no stall has been detected. The
// saber.overload.stalls counter carries the count.
func (e *Engine) StallReport() string { return e.e.StallReport() }

// ThroughputMatrix returns the HLS throughput matrix rows as
// [query][cpu, gpu] rates (telemetry, Fig. 16).
func (e *Engine) ThroughputMatrix() [][2]float64 {
	m := e.e.Matrix()
	if m == nil {
		return nil
	}
	snap := m.Snapshot()
	out := make([][2]float64, len(snap))
	for i, row := range snap {
		out[i] = [2]float64{row[sched.CPU], row[sched.GPU]}
	}
	return out
}

// QueryHandle ingests data into a query and exposes its ordered result
// stream and statistics.
type QueryHandle struct {
	h *engine.Handle
}

// Insert appends serialised tuples to the query's (single) input.
func (q *QueryHandle) Insert(data []byte) { q.h.Insert(data) }

// InsertInto appends tuples to input side 0 or 1 of a join query.
func (q *QueryHandle) InsertInto(side int, data []byte) { q.h.InsertInto(side, data) }

// TryInsert is the non-blocking admission path: the whole payload is
// admitted, or none of it is and TryInsert returns false (counted in
// saber.overload.q<i>.admit.rejects). It admits only what the input
// buffer and the result window can take right now, so a payload larger
// than the buffer, or completing more tasks than ResultSlots, never
// succeeds. Use it when the caller would rather shed or reroute at the
// source than block on backpressure.
func (q *QueryHandle) TryInsert(data []byte) bool { return q.h.TryInsert(data) }

// TryInsertInto is TryInsert for input side 0 or 1 of a join query.
func (q *QueryHandle) TryInsertInto(side int, data []byte) bool {
	return q.h.TryInsertInto(side, data)
}

// OnResult installs an ordered result sink. fn must not retain the slice.
func (q *QueryHandle) OnResult(fn func(rows []byte)) { q.h.OnResult(fn) }

// OutputSchema returns the result tuple layout.
func (q *QueryHandle) OutputSchema() *Schema { return q.h.OutputSchema() }

// Name returns the query's name.
func (q *QueryHandle) Name() string { return q.h.Name() }

// Stats snapshots the query's counters.
func (q *QueryHandle) Stats() Stats { return q.h.Stats() }

// Committed returns the output byte offset covered by the newest durable
// checkpoint: keep output up to this offset and resume from it after a
// Restore to observe every result exactly once.
func (q *QueryHandle) Committed() int64 { return q.h.Committed() }

// InputCursor returns the absolute tuple index the feeder must replay
// the stream from after a Restore (side 0 unless the query is a join).
func (q *QueryHandle) InputCursor(side int) int64 { return q.h.InputCursor(side) }

// String describes the handle.
func (q *QueryHandle) String() string {
	return fmt.Sprintf("query(%s)", q.h.Name())
}

// Catalog is a live multi-query catalog driving an Engine: it executes
// BQL DDL scripts (CREATE SOURCE / SINK / STREAM, DROP, PAUSE, RESUME),
// owns the named objects and their dependency graph, and keeps the
// statement log inside every checkpoint so a restarted engine rebuilds
// the exact registered query set. Obtain one with Engine.BootScript.
type Catalog struct {
	m *catalog.Manager
}

// CatalogListing is the JSON-serialisable snapshot of a Catalog's
// contents, as served on GET /catalog.
type CatalogListing = catalog.Listing

// BootScript builds a catalog for the engine from a BQL script. When the
// engine's checkpoint directory holds a loadable epoch, the snapshot's
// statement log is replayed instead of the script and the engine is
// restored at the barrier (the returned RestoreInfo is non-nil exactly
// in that case). Call before Start; call Catalog.StartFeeds after it.
func (e *Engine) BootScript(script string) (*Catalog, *RestoreInfo, error) {
	m, info, err := catalog.Boot(e.e, script)
	if err != nil {
		return nil, nil, err
	}
	return &Catalog{m: m}, info, nil
}

// AdminHandler returns the admin endpoint with the catalog's routes
// mounted next to /varz, /metrics, /traces and /debug/pprof: GET
// /catalog lists the live objects, POST /catalog/ddl executes DDL
// against the running engine.
func (e *Engine) AdminHandler(c *Catalog) http.Handler {
	return obs.Handler(e.e.Metrics(), e.e.Tracer(), c.m.Routes()...)
}

// Exec executes a BQL script against the live catalog and reports how
// many statements were applied before the first error, if any.
func (c *Catalog) Exec(src string) (int, error) { return c.m.Exec(src) }

// ExecScript is Exec discarding the applied-statement count.
func (c *Catalog) ExecScript(src string) error { return c.m.ExecScript(src) }

// StartFeeds starts the generator feeders and TCP listeners. Call once,
// after Engine.Start.
func (c *Catalog) StartFeeds() { c.m.StartFeeds() }

// WaitFeeds blocks until every currently running generator feeder
// reaches its count bound. Feeders without a count never finish; stop
// those with Close.
func (c *Catalog) WaitFeeds() { c.m.WaitFeeds() }

// Tap attaches fn to a stream's post-emitter result feed, alongside any
// INTO sink. fn must not retain the slice.
func (c *Catalog) Tap(stream string, fn func(rows []byte)) error { return c.m.Tap(stream, fn) }

// Stream returns the query handle behind a named stream.
func (c *Catalog) Stream(name string) (*QueryHandle, error) {
	h, err := c.m.Handle(name)
	if err != nil {
		return nil, err
	}
	return &QueryHandle{h: h}, nil
}

// List snapshots the catalog contents.
func (c *Catalog) List() CatalogListing { return c.m.List() }

// Statements returns the replayable statement log — the DDL that
// recreates the current catalog, in execution order.
func (c *Catalog) Statements() []string { return c.m.Statements() }

// Close stops feeders, listeners and file sinks. It does not stop the
// engine: drain and close that separately.
func (c *Catalog) Close() { c.m.Close() }
