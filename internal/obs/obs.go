// Package obs is SABER's unified observability subsystem: a
// zero-allocation metrics core (sharded counters, gauges and log-scale
// latency histograms), per-task pipeline tracing, and the snapshot /
// admin-endpoint machinery that exposes a running engine.
//
// Every subsystem reports through one Registry tree under a canonical
// dotted naming scheme:
//
//	saber.<subsystem>[.q<query>][.in<input>].<noun>[.<noun>...]
//
// e.g. saber.engine.q0.result.drained, saber.sched.hls.flips,
// saber.gpu.bytes.moved, saber.trace.e2e. The q<i>/in<j> segments carry
// instance identity; the Prometheus renderer lifts them into labels
// (query="0", input="1") so one time series family covers all queries.
//
// Three metric kinds cover the hot paths:
//
//   - Counter: a monotonic, cache-line-sharded atomic counter. Add is
//     lock-free and allocation-free; Value sums the shards.
//   - Gauge: a point-in-time atomic value, plus func-backed variants
//     (RegisterFunc / RegisterFloatFunc) that mirror telemetry a
//     subsystem already keeps in its own atomics — the registry reads
//     them only at snapshot time, so mirroring costs nothing on the hot
//     path.
//   - Histogram: fixed-bucket log₂-scale distribution with 8 sub-buckets
//     per octave (≤12.5% relative bucket error). Observe is two atomic
//     adds; Snapshot never blocks writers.
//
// Registration takes a lock; observation never does. Snapshot reads
// every value with atomic loads, so it is safe (and race-clean) against
// concurrent writers without pausing them.
package obs

import (
	"sort"
	"sync"
)

// Registry is one metric tree. Get-or-create accessors make wiring
// idempotent: asking twice for the same name returns the same metric, so
// engines sharing a registry (or re-registering after restart) never
// collide. A name is bound to one metric kind; re-requesting it as a
// different kind panics (a wiring bug, not a runtime condition).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindCounter)
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindGauge)
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindHist)
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc mirrors telemetry a subsystem keeps in its own atomics:
// fn is evaluated at snapshot time only. Re-registering a name replaces
// the previous func (an engine restarted on a shared registry rebinds
// its mirrors to the live instance).
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.RegisterFloatFunc(name, func() float64 { return float64(fn()) })
}

// RegisterFloatFunc is RegisterFunc for float-valued mirrors (e.g. the
// HLS throughput matrix rates).
func (r *Registry) RegisterFloatFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindFunc)
	r.funcs[name] = fn
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHist
	kindFunc
)

// checkKind panics when name is already bound to a different metric
// kind. Called with r.mu held.
func (r *Registry) checkKind(name string, want metricKind) {
	if _, ok := r.counters[name]; ok && want != kindCounter {
		panic("obs: metric " + name + " already registered as a counter")
	}
	if _, ok := r.gauges[name]; ok && want != kindGauge {
		panic("obs: metric " + name + " already registered as a gauge")
	}
	if _, ok := r.hists[name]; ok && want != kindHist {
		panic("obs: metric " + name + " already registered as a histogram")
	}
	if _, ok := r.funcs[name]; ok && want != kindFunc {
		panic("obs: metric " + name + " already registered as a func gauge")
	}
}

// Snapshot captures every metric's current value. Counter and histogram
// reads are atomic loads; func gauges are evaluated inline. The snapshot
// is a consistent-enough point-in-time view for monitoring — writers are
// never paused, so counters incremented mid-walk may or may not appear.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, fn := range r.funcs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
