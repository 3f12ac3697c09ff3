package ingest

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T, sink Sink, tupleSize int) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", sink, tupleSize)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { s.Close() })
	return s
}

type collectSink struct {
	mu  sync.Mutex
	buf []byte
}

func (c *collectSink) Insert(data []byte) {
	c.mu.Lock()
	c.buf = append(c.buf, data...)
	c.mu.Unlock()
}

func (c *collectSink) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]byte, len(c.buf))
	copy(out, c.buf)
	return out
}

func TestRoundTrip(t *testing.T) {
	sink := &collectSink{}
	srv := startServer(t, sink, 8)

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 100; i++ {
		frame := make([]byte, 8*(1+i%5))
		for j := range frame {
			frame[j] = byte(i + j)
		}
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	if err := c.Send(nil); err != nil { // empty frame: no-op
		t.Fatal(err)
	}
	c.Close()
	srv.Close()

	if !bytes.Equal(sink.bytes(), want) {
		t.Fatalf("received %d bytes, want %d", len(sink.bytes()), len(want))
	}
	if srv.BytesIn() != int64(len(want)) || srv.Frames() != 100 {
		t.Fatalf("telemetry: bytes=%d frames=%d", srv.BytesIn(), srv.Frames())
	}
}

func TestRejectsPartialTuples(t *testing.T) {
	sink := &collectSink{}
	srv := startServer(t, sink, 8)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 5-byte frame is not whole 8-byte tuples: the server must drop the
	// connection without sinking anything.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 5)
	conn.Write(hdr[:])
	conn.Write([]byte{1, 2, 3, 4, 5})
	// The server closes; a subsequent read observes EOF.
	buf := make([]byte, 1)
	conn.Read(buf)
	if len(sink.bytes()) != 0 {
		t.Fatal("partial tuple reached the sink")
	}
}

func TestRejectsOversizedFrame(t *testing.T) {
	c := &Client{}
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted by client")
	}
	sink := &collectSink{}
	srv := startServer(t, sink, 8)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+8)
	conn.Write(hdr[:])
	buf := make([]byte, 1)
	conn.Read(buf) // server hangs up
	if len(sink.bytes()) != 0 {
		t.Fatal("oversized frame reached the sink")
	}
}

func TestConcurrentSenders(t *testing.T) {
	var total int
	var mu sync.Mutex
	srv := startServer(t, SinkFunc(func(data []byte) {
		mu.Lock()
		total += len(data)
		mu.Unlock()
	}), 8)

	var wg sync.WaitGroup
	const senders, frames = 4, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			frame := make([]byte, 64)
			for i := 0; i < frames; i++ {
				if err := c.Send(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Close serves queued connections only within its grace, so wait for
	// the payload to arrive before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := total
		mu.Unlock()
		if got == senders*frames*64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("total = %d", got)
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
}

// TestDefaultReadTimeoutArmed: a fresh server must have a non-zero read
// deadline — with strictly serial connection handling, a deadline-less
// idle connection would starve every later sender and block Close.
func TestDefaultReadTimeoutArmed(t *testing.T) {
	srv := startServer(t, &collectSink{}, 8)
	if d := time.Duration(srv.readTimeout.Load()); d != DefaultReadTimeout || d <= 0 {
		t.Fatalf("default read timeout = %v, want %v", d, DefaultReadTimeout)
	}
}

// TestIdleConnectionDoesNotStarveNextSender: an idle-but-live connection
// holds the single serving slot only until its read deadline fires; the
// next sender's frames must then drain instead of queueing forever.
func TestIdleConnectionDoesNotStarveNextSender(t *testing.T) {
	sink := &collectSink{}
	srv := startServer(t, sink, 8)
	srv.SetReadTimeout(50 * time.Millisecond)

	idle, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 16)
	if err := c.Send(frame); err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(sink.bytes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second sender starved behind an idle connection")
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(sink.bytes(), frame) {
		t.Fatalf("received %d bytes, want %d", len(sink.bytes()), len(frame))
	}
	if srv.Stats().DeadlineDrops == 0 {
		t.Error("idle connection was not counted as a deadline drop")
	}
}

// TestCloseBoundedByIdleConnection: Close must not wait out a live idle
// sender's full read timeout (30s by default) — the close grace bounds
// the drain of the in-flight connection.
func TestCloseBoundedByIdleConnection(t *testing.T) {
	srv := startServer(t, &collectSink{}, 8)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the server accept and block reading the idle connection.
	time.Sleep(20 * time.Millisecond)

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on a live idle connection")
	}
}

// TestCloseServesQueuedConnections: a sender that finished while the
// server was still draining an earlier connection sits, frames and all,
// in the listener's accept queue. Close must serve it before it closes
// the listener, not drop it.
func TestCloseServesQueuedConnections(t *testing.T) {
	release := make(chan struct{})
	sink := &collectSink{}
	srv := startServer(t, SinkFunc(func(data []byte) {
		<-release // hold the serving slot on the first connection
		sink.Insert(data)
	}), 8)

	send := func(b byte) []byte {
		t.Helper()
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		frame := bytes.Repeat([]byte{b}, 64)
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
		c.Close()
		return frame
	}
	want := send(1)
	want = append(want, send(2)...) // queued behind the blocked first one

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	for srv.closeDeadline.Load() == 0 { // Close has begun while the slot is held
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("sink got %d bytes, want %d", len(got), len(want))
	}
}

// TestCloseWithoutServeDrainsQueue: a sender can connect and finish
// before the goroutine running Serve is first scheduled. Close must then
// serve the queued connection itself rather than close the listener on
// it.
func TestCloseWithoutServeDrainsQueue(t *testing.T) {
	sink := &collectSink{}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 8*500)
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("sink got %d bytes, want %d", len(got), len(want))
	}
	if srv.BytesIn() != int64(len(want)) || srv.Frames() != 1 {
		t.Fatalf("telemetry: bytes=%d frames=%d", srv.BytesIn(), srv.Frames())
	}
}

// TestServeAfterCloseReturns: a Serve that starts after Close finds the
// listener closed and returns nil at once instead of an accept error.
func TestServeAfterCloseReturns(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", &collectSink{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve after Close did not return")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, 8); err == nil {
		t.Error("nil sink accepted")
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	if _, err := NewServer(l, &collectSink{}, 0); err == nil {
		t.Error("zero tuple size accepted")
	}
	if _, err := NewServer(struct{ net.Listener }{l}, &collectSink{}, 8); err == nil {
		t.Error("listener without SetDeadline accepted")
	}
	srv, err := NewServer(l, &collectSink{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	srv.Close() // idempotent
}
