package catalog

import (
	"os"
	"sync"
)

// sink is one live CREATE SINK: a byte-stream destination shared by the
// streams that INTO it. writers is guarded by Manager.mu; write runs on
// engine result goroutines and serialises through its own lock.
type sink struct {
	spec    *SinkSpec
	writers map[string]bool

	mu    sync.Mutex
	f     *os.File
	bytes int64
}

func newSink(spec *SinkSpec) (*sink, error) {
	s := &sink{spec: spec, writers: make(map[string]bool)}
	if spec.Type == "file" {
		f, err := os.Create(spec.Path)
		if err != nil {
			return nil, err
		}
		s.f = f
	}
	return s, nil
}

func (s *sink) write(rows []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes += int64(len(rows))
	if s.f != nil {
		s.f.Write(rows)
	}
}

func (s *sink) bytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func (s *sink) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}
