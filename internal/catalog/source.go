package catalog

import (
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/engine"
	"saber/internal/ingest"
)

// source is one live CREATE SOURCE. Gen sources carry no goroutine of
// their own — every attached stream input gets its own identically
// seeded feeder, so each stream sees the same deterministic byte stream
// no matter when it attached (the property the differential tests rest
// on). Tcp sources run one ingest server fanning arriving frames out to
// every attached input.
type source struct {
	spec *SourceSpec
	srv  *ingest.Server // tcp only

	// readers maps attached streams to their input sides; guarded by
	// Manager.mu. fan is the tcp fan-out list, atomic because the ingest
	// connection goroutines read it per frame.
	readers map[*stream][]int
	fan     atomic.Value // []fanTap
	serving bool
}

type fanTap struct {
	h    *engine.Handle
	side int
}

func newSource(spec *SourceSpec) (*source, error) {
	s := &source{spec: spec, readers: make(map[*stream][]int)}
	s.fan.Store([]fanTap{})
	if spec.Type == "tcp" {
		srv, err := ingest.Listen(spec.Addr, ingest.SinkFunc(s.fanout), spec.Schema.TupleSize())
		if err != nil {
			return nil, err
		}
		s.srv = srv
	}
	return s, nil
}

// fanout delivers one arriving tcp frame to every attached stream input.
// Runs on an ingest connection goroutine.
func (s *source) fanout(data []byte) {
	for _, t := range s.fan.Load().([]fanTap) {
		t.h.InsertInto(t.side, data)
	}
}

// attach registers a stream input as a reader. Manager.mu held.
func (s *source) attach(str *stream, side int) {
	s.readers[str] = append(s.readers[str], side)
	if s.srv != nil {
		s.refan()
	}
}

// detach removes one stream input. Manager.mu held.
func (s *source) detach(str *stream, side int) {
	sides := s.readers[str]
	for i, sd := range sides {
		if sd == side {
			sides = append(sides[:i], sides[i+1:]...)
			break
		}
	}
	if len(sides) == 0 {
		delete(s.readers, str)
	} else {
		s.readers[str] = sides
	}
	if s.srv != nil {
		s.refan()
	}
}

// refan republishes the tcp fan-out list from readers. Manager.mu held.
func (s *source) refan() {
	var taps []fanTap
	for str, sides := range s.readers {
		for _, side := range sides {
			taps = append(taps, fanTap{h: str.handle, side: side})
		}
	}
	if taps == nil {
		taps = []fanTap{}
	}
	s.fan.Store(taps)
}

func (s *source) numReaders() int { return len(s.readers) }

// start begins serving (tcp only; gen feeders belong to the streams).
// Manager.mu held.
func (s *source) start() {
	if s.srv != nil && !s.serving {
		s.serving = true
		go s.srv.Serve()
	}
}

// Addr returns the tcp listen address ("" for gen sources) — the
// ephemeral-port resolution tests and tools need.
func (s *source) addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr().String()
}

func (s *source) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}

// feeder is one gen-source pump: a goroutine generating the source's
// deterministic tuple stream into one stream input, paced to the
// source's rate and bounded by its count.
type feeder struct {
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once
}

func newFeeder(h *engine.Handle, side int, spec *SourceSpec, cursor int64) *feeder {
	f := &feeder{stopc: make(chan struct{}), done: make(chan struct{})}
	go f.run(h, side, spec, cursor)
	return f
}

// signal asks the feeder to stop without waiting for it.
func (f *feeder) signal() { f.once.Do(func() { close(f.stopc) }) }

// wait blocks until the feeder goroutine exits. The caller must have
// arranged for any blocked admission to return first (dropped query,
// engine quiesce, or simply a live consumer).
func (f *feeder) wait() { <-f.done }

func (f *feeder) run(h *engine.Handle, side int, spec *SourceSpec, cursor int64) {
	defer close(f.done)
	g := spec.NewGen()
	tsz := spec.Schema.TupleSize()
	const chunk = 512
	buf := make([]byte, 0, chunk*tsz)
	// Deterministic fast-forward: regenerate and discard the tuples below
	// the resume cursor so replay continues the exact pre-crash stream.
	for skip := cursor; skip > 0; {
		n := int64(chunk)
		if skip < n {
			n = skip
		}
		g.Next(buf[:0], int(n))
		skip -= n
	}
	fed := cursor
	for {
		select {
		case <-f.stopc:
			return
		default:
		}
		n := int64(chunk)
		if spec.Count > 0 {
			rem := spec.Count - fed
			if rem <= 0 {
				return
			}
			if rem < n {
				n = rem
			}
		}
		data := g.Next(buf[:0], int(n))
		h.InsertInto(side, data)
		fed += n
		if spec.Rate > 0 {
			d := time.Duration(float64(n) / spec.Rate * float64(time.Second))
			select {
			case <-f.stopc:
				return
			case <-time.After(d):
			}
		}
	}
}
