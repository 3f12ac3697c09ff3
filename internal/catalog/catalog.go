// Package catalog is SABER's live query catalog: the control plane that
// owns named sources, streams and sinks, translates BQL DDL into engine
// lifecycle actions (Register/Deregister/Pause/Resume), and keeps a
// replayable statement log that rides inside every checkpoint so a
// restarted engine restores its registered statements exactly-once.
//
// Consistency protocol with the checkpoint coordinator (which captures
// the log lock-free, under the engine's registration lock, via
// Engine.SetStatementSource): a CREATE publishes its statement to the
// log BEFORE registering with the engine, and a DROP removes it AFTER
// deregistering. A crash landing in either window therefore yields a
// checkpoint whose statement log is a superset of its query snapshots —
// recovery replays the log, cold-starts the extra stream, and skips the
// unmatched snapshot entry (Restore's catalog mode) — never a refused
// restore.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"saber/internal/bql"
	"saber/internal/engine"
)

// Manager is the live catalog over one engine. All DDL goes through
// Exec/ExecScript; mutations are serialised by an internal lock, while
// the statement log is published atomically for the lock-free
// checkpoint capture path.
type Manager struct {
	eng *engine.Engine

	mu      sync.Mutex
	sources map[string]*source
	sinks   map[string]*sink
	streams map[string]*stream
	log     []logEntry
	// running flips when StartFeeds is called (engine started): from then
	// on a CREATE starts its stream's feeders once its script has applied;
	// before it, feeders stay parked so Restore can rebase the rings first.
	running bool
	closed  bool

	stmts atomic.Value // []string: the published statement log
}

// logEntry is one replayable statement in the catalog log, keyed so
// DROP/RESUME can remove exactly the entry its CREATE/PAUSE added.
type logEntry struct {
	key  string
	text string
}

// New builds an empty catalog over eng and installs its statement log as
// the engine's checkpoint statement source (which also switches Restore
// into catalog mode).
func New(eng *engine.Engine) *Manager {
	m := &Manager{
		eng:     eng,
		sources: make(map[string]*source),
		sinks:   make(map[string]*sink),
		streams: make(map[string]*stream),
	}
	m.stmts.Store([]string{})
	eng.SetStatementSource(m.Statements)
	return m
}

// Statements returns the published statement log: every statement needed
// to rebuild the current catalog, in dependency order. Lock-free — the
// checkpoint coordinator calls it under the engine's registration lock.
func (m *Manager) Statements() []string {
	return m.stmts.Load().([]string)
}

// publish rebuilds the published log from m.log. Callers hold m.mu.
func (m *Manager) publish() {
	out := make([]string, len(m.log))
	for i, e := range m.log {
		out[i] = e.text
	}
	m.stmts.Store(out)
}

// logAppend adds a keyed statement and publishes. Callers hold m.mu.
func (m *Manager) logAppend(key, text string) {
	m.log = append(m.log, logEntry{key: key, text: text})
	m.publish()
}

// logRemove deletes the entry with the given key (if present) and
// publishes. Callers hold m.mu.
func (m *Manager) logRemove(key string) {
	for i, e := range m.log {
		if e.key == key {
			m.log = append(m.log[:i], m.log[i+1:]...)
			m.publish()
			return
		}
	}
}

// ExecScript parses and executes a whole BQL script, stopping at the
// first failing statement.
func (m *Manager) ExecScript(src string) error {
	_, err := m.Exec(src)
	return err
}

// Exec executes one or more DDL statements and reports how many applied,
// stopping at the first failing statement. The script applies under one
// hold of the catalog lock, and the streams it creates start feeding only
// once it has applied, so a script's own PAUSE (create paused, attach a
// tap, resume) takes effect before any tuple reaches the new query.
func (m *Manager) Exec(src string) (int, error) {
	sc, err := bql.Parse(src)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.startCreatedFeeds()
	for i, st := range sc.Stmts {
		if err := m.execStatement(sc, st); err != nil {
			return i, err
		}
	}
	return len(sc.Stmts), nil
}

// startCreatedFeeds starts the feeders of streams created since the last
// call once the engine is running (startFeeds skips streams already
// feeding). Callers hold m.mu.
func (m *Manager) startCreatedFeeds() {
	if !m.running || m.closed {
		return
	}
	for _, str := range m.streams {
		str.startFeeds()
	}
}

// execStatement applies one statement. Callers hold m.mu.
func (m *Manager) execStatement(sc *bql.Script, st bql.Statement) error {
	if m.closed {
		return fmt.Errorf("catalog: closed")
	}
	switch st := st.(type) {
	case *bql.CreateSource:
		return m.createSource(sc, st)
	case *bql.CreateSink:
		return m.createSink(sc, st)
	case *bql.CreateStream:
		return m.createStream(sc, st)
	case *bql.Drop:
		return m.drop(st)
	case *bql.Pause:
		return m.pause(st.Name)
	case *bql.Resume:
		return m.resume(st.Name)
	default:
		return fmt.Errorf("catalog: unsupported statement %T", st)
	}
}

func (m *Manager) createSource(sc *bql.Script, st *bql.CreateSource) error {
	spec, err := AnalyzeSource(sc.Src, st)
	if err != nil {
		return err
	}
	if _, ok := m.sources[st.Name]; ok {
		return fmt.Errorf("catalog: source %q already exists", st.Name)
	}
	src, err := newSource(spec)
	if err != nil {
		return err
	}
	m.sources[st.Name] = src
	m.logAppend("source/"+st.Name, sc.Text(st))
	if m.running {
		src.start()
	}
	return nil
}

func (m *Manager) createSink(sc *bql.Script, st *bql.CreateSink) error {
	spec, err := AnalyzeSink(sc.Src, st)
	if err != nil {
		return err
	}
	if _, ok := m.sinks[st.Name]; ok {
		return fmt.Errorf("catalog: sink %q already exists", st.Name)
	}
	sk, err := newSink(spec)
	if err != nil {
		return err
	}
	m.sinks[st.Name] = sk
	m.logAppend("sink/"+st.Name, sc.Text(st))
	return nil
}

// sourceStreams maps each registered source to its schema: the streams a
// SELECT can read FROM. Callers hold m.mu.
func (m *Manager) sourceStreams() bql.Streams {
	streams := make(bql.Streams, len(m.sources))
	for name, s := range m.sources {
		streams[name] = s.spec.Schema
	}
	return streams
}

func (m *Manager) createStream(sc *bql.Script, st *bql.CreateStream) error {
	spec, err := bql.AnalyzeStream(sc.Src, st, m.sourceStreams())
	if err != nil {
		return err
	}
	if _, ok := m.streams[st.Name]; ok {
		return fmt.Errorf("catalog: stream %q already exists", st.Name)
	}
	var out *sink
	if spec.Into != "" {
		var ok bool
		if out, ok = m.sinks[spec.Into]; !ok {
			return fmt.Errorf("catalog: stream %q writes to unknown sink %q", st.Name, spec.Into)
		}
	}
	// Resolve the FROM dependencies before touching the engine.
	srcs := make([]*source, len(spec.Query.Inputs))
	for i, in := range spec.Query.Inputs {
		s, ok := m.sources[in.Name]
		if !ok {
			return fmt.Errorf("catalog: stream %q reads unknown source %q", st.Name, in.Name)
		}
		srcs[i] = s
	}

	// Publish-before-register (see the package comment): a crash between
	// the two can only make recovery cold-start this stream, never refuse.
	key := "stream/" + st.Name
	m.logAppend(key, sc.Text(st))
	h, err := m.eng.RegisterWith(spec.Query, engine.RegisterOptions{Overload: spec.Overload})
	if err != nil {
		m.logRemove(key)
		return fmt.Errorf("catalog: stream %q: %w", st.Name, err)
	}
	str := &stream{
		name:    st.Name,
		handle:  h,
		spec:    spec,
		emit:    newEmitter(spec.Emitter, spec.Query.IsAggregation(), h.OutputSchema().TupleSize()),
		out:     out,
		sources: srcs,
	}
	str.taps.Store([]func([]byte){})
	h.OnResult(str.onResult)
	if out != nil {
		out.writers[st.Name] = true
	}
	for side, s := range srcs {
		s.attach(str, side)
	}
	m.streams[st.Name] = str
	return nil
}

func (m *Manager) drop(st *bql.Drop) error {
	switch st.Kind {
	case bql.KindStream:
		str, ok := m.streams[st.Name]
		if !ok {
			return fmt.Errorf("catalog: stream %q does not exist", st.Name)
		}
		// Signal the feeders, run the engine's drain-safe drop protocol
		// (which turns any blocked admission into an accounted abort), then
		// join the feeders, and only then unpublish the statement
		// (drop-after-deregister).
		str.signalFeeds()
		if err := m.eng.Deregister(st.Name); err != nil {
			return err
		}
		str.stopFeeds()
		for side, s := range str.sources {
			s.detach(str, side)
		}
		if str.out != nil {
			delete(str.out.writers, st.Name)
		}
		delete(m.streams, st.Name)
		m.logRemove("pause/" + st.Name)
		m.logRemove("stream/" + st.Name)
		return nil
	case bql.KindSource:
		s, ok := m.sources[st.Name]
		if !ok {
			return fmt.Errorf("catalog: source %q does not exist", st.Name)
		}
		if n := s.numReaders(); n > 0 {
			return fmt.Errorf("catalog: source %q still feeds %d stream(s)", st.Name, n)
		}
		s.close()
		delete(m.sources, st.Name)
		m.logRemove("source/" + st.Name)
		return nil
	case bql.KindSink:
		sk, ok := m.sinks[st.Name]
		if !ok {
			return fmt.Errorf("catalog: sink %q does not exist", st.Name)
		}
		if len(sk.writers) > 0 {
			names := make([]string, 0, len(sk.writers))
			for w := range sk.writers {
				names = append(names, w)
			}
			sort.Strings(names)
			return fmt.Errorf("catalog: sink %q still receives from %v", st.Name, names)
		}
		sk.close()
		delete(m.sinks, st.Name)
		m.logRemove("sink/" + st.Name)
		return nil
	}
	return fmt.Errorf("catalog: unknown object kind %v", st.Kind)
}

func (m *Manager) pause(name string) error {
	str, ok := m.streams[name]
	if !ok {
		return fmt.Errorf("catalog: stream %q does not exist", name)
	}
	if err := m.eng.Pause(name); err != nil {
		return err
	}
	if !str.paused {
		str.paused = true
		m.logAppend("pause/"+name, "PAUSE STREAM "+name)
	}
	return nil
}

func (m *Manager) resume(name string) error {
	str, ok := m.streams[name]
	if !ok {
		return fmt.Errorf("catalog: stream %q does not exist", name)
	}
	if err := m.eng.Resume(name); err != nil {
		return err
	}
	if str.paused {
		str.paused = false
		m.logRemove("pause/" + name)
	}
	return nil
}

// StartFeeds starts every source feeder, resuming each stream input at
// its handle's input cursor (0 on a cold start; the checkpoint barrier
// after a Restore). Call once, after Engine.Start.
func (m *Manager) StartFeeds() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running || m.closed {
		return
	}
	m.running = true
	for _, s := range m.sources {
		s.start()
	}
	for _, str := range m.streams {
		str.startFeeds()
	}
}

// WaitFeeds blocks until every feeder running at the time of the call
// has finished — the natural quiesce point for scripts whose gen sources
// are count-bounded (after it, Engine.Drain settles the pipeline).
func (m *Manager) WaitFeeds() {
	m.mu.Lock()
	var fs []*feeder
	for _, str := range m.streams {
		fs = append(fs, str.feeders...)
	}
	m.mu.Unlock()
	for _, f := range fs {
		f.wait()
	}
}

// Tap attaches fn to a stream's post-emitter output — the catalog-level
// observer used by tests and differential harnesses. fn runs on the
// engine's result path and must not block.
func (m *Manager) Tap(stream string, fn func(rows []byte)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	str, ok := m.streams[stream]
	if !ok {
		return fmt.Errorf("catalog: stream %q does not exist", stream)
	}
	taps := str.taps.Load().([]func([]byte))
	next := make([]func([]byte), len(taps)+1)
	copy(next, taps)
	next[len(taps)] = fn
	str.taps.Store(next)
	return nil
}

// Handle exposes a stream's engine handle (tests and the run harness).
func (m *Manager) Handle(stream string) (*engine.Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	str, ok := m.streams[stream]
	if !ok {
		return nil, fmt.Errorf("catalog: stream %q does not exist", stream)
	}
	return str.handle, nil
}

// Close signals every feeder, stops the tcp servers and closes the
// sinks. Feeders are signalled but not joined: one blocked in admission
// only returns once the engine quiesces, so the owner's Drain/Close
// right after this unblocks it. The engine itself is left to its owner.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, str := range m.streams {
		str.signalFeeds()
	}
	for _, s := range m.sources {
		s.close()
	}
	for _, sk := range m.sinks {
		sk.close()
	}
}
