package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// frameSink records every Insert as its own frame, copied: data is valid
// only during the call.
type frameSink struct{ frames [][]byte }

func (f *frameSink) Insert(data []byte) { f.frames = append(f.frames, bytes.Clone(data)) }

// trickleConn serves a fixed byte stream at most chunk bytes per Read and
// discards writes (greetings). Only the methods handle calls without
// credits are implemented.
type trickleConn struct {
	net.Conn
	stream []byte
	chunk  int
}

func (c *trickleConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.stream)
	c.stream = c.stream[n:]
	return n, nil
}

func (c *trickleConn) Write(p []byte) (int, error)     { return len(p), nil }
func (c *trickleConn) SetReadDeadline(time.Time) error { return nil }

// tupleRange is tuples [from, from+n) of a stream whose tuple i is the
// 8-byte little-endian i, so a delivered byte names the tuple it came from.
func tupleRange(from, n int64) []byte {
	b := make([]byte, 8*n)
	for i := range n {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(from+i))
	}
	return b
}

// wireFrame is one frame on the wire: tuples [off, off+n), with the
// resume header when resume is set.
func wireFrame(dst []byte, off, n int64, resume bool) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8*n))
	if resume {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	}
	return append(dst, tupleRange(off, n)...)
}

// TestFrameBoundaries sends frames on both sides of the server's read
// buffer, read one byte per Read and all in one Read, and requires one
// Insert per frame with the frame's exact bytes. In resume mode the
// stream carries a duplicate and a straddling replay, which for small
// frames fall inside one buffered read.
func TestFrameBoundaries(t *testing.T) {
	const tsz = 8
	sizes := []struct {
		name  string
		bytes int
	}{
		{"1tuple", tsz},
		{"buf-1tuple", readBufSize - tsz},
		{"buf", readBufSize},
		{"buf+1tuple", readBufSize + tsz},
		{"2buf", 2 * readBufSize},
		{"MaxFrame", MaxFrame},
	}
	for _, sz := range sizes {
		k := int64(sz.bytes / tsz)
		for _, resume := range []bool{false, true} {
			// Each frame is [offset, tuples], and one per stream is of the
			// size under test. Plain: a one-tuple frame that shifts the
			// alignment, the frame, a one-tuple frame after it. Resume: a
			// one-tuple frame, the frame replayed from tuple 0 (trimmed by
			// one tuple; a duplicate when it is one tuple), a duplicate of
			// tuple 0, a new one-tuple frame.
			frames := [][2]int64{{0, 1}, {1, k}, {k + 1, 1}}
			if resume {
				frames = [][2]int64{{0, 1}, {0, k}, {0, 1}, {max(k, 1), 1}}
			}
			var stream []byte
			var want [][]byte
			var cur int64 // resume cursor
			for _, f := range frames {
				stream = wireFrame(stream, f[0], f[1], resume)
				from, end := f[0], f[0]+f[1]
				if resume {
					if end <= cur {
						continue
					}
					from, cur = max(from, cur), end
				}
				want = append(want, tupleRange(from, end-from))
			}
			for _, rd := range []struct {
				name  string
				chunk int
			}{{"bytewise", 1}, {"whole", len(stream)}} {
				t.Run(fmt.Sprintf("%s/resume=%v/%s", sz.name, resume, rd.name), func(t *testing.T) {
					if testing.Short() && rd.chunk == 1 && sz.bytes == MaxFrame {
						t.Skip("16 M one-byte reads; run without -short")
					}
					sink := &frameSink{}
					s := &Server{sink: sink, tupleSize: tsz, resume: resume}
					conn := &trickleConn{stream: stream, chunk: rd.chunk}
					if err := s.handle(conn); err != nil {
						t.Fatalf("handle: %v", err)
					}
					if len(sink.frames) != len(want) {
						t.Fatalf("%d inserts, want %d", len(sink.frames), len(want))
					}
					for i := range want {
						if !bytes.Equal(sink.frames[i], want[i]) {
							t.Fatalf("insert %d: %d bytes differ from the %d-byte frame sent", i, len(sink.frames[i]), len(want[i]))
						}
					}
				})
			}
		}
	}
}

// TestStalledHalfFrame: a sender that writes whole frames and then half a
// frame and stalls gets exactly the whole frames delivered, and its
// connection is dropped by the read deadline.
func TestStalledHalfFrame(t *testing.T) {
	const tsz, whole = 8, 5
	sink := &collectSink{}
	srv := startServer(t, sink, tsz)
	srv.SetReadTimeout(100 * time.Millisecond)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	for i := int64(0); i < whole; i++ {
		stream = wireFrame(stream, 16*i, 16, false)
	}
	half := wireFrame(nil, 16*whole, 16, false)
	stream = append(stream, half[:len(half)/2]...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().DeadlineDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled connection never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := srv.Stats()
	if st.DeadlineDrops != 1 || st.Frames != whole {
		t.Fatalf("drops=%d frames=%d, want 1 and %d", st.DeadlineDrops, st.Frames, whole)
	}
	var payloads []byte
	for i := int64(0); i < whole; i++ {
		payloads = append(payloads, tupleRange(16*i, 16)...)
	}
	if !bytes.Equal(sink.bytes(), payloads) {
		t.Fatalf("sink got %d bytes, want the %d of the whole frames", len(sink.bytes()), len(payloads))
	}
}

// TestSendAllocatesNothing: a Send over loopback TCP, plain and resume,
// makes no heap allocation.
func TestSendAllocatesNothing(t *testing.T) {
	const tsz, n = 8, 64
	for _, resume := range []bool{false, true} {
		t.Run(fmt.Sprintf("resume=%v", resume), func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", SinkFunc(func([]byte) {}), tsz)
			if err != nil {
				t.Fatal(err)
			}
			if resume {
				srv.EnableResume(0)
			}
			go func() { _ = srv.Serve() }()
			defer srv.Close()
			var c *Client
			if resume {
				c, _, err = DialResume(srv.Addr().String(), tsz)
			} else {
				c, err = Dial(srv.Addr().String())
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			frame := tupleRange(0, n)
			var off int64
			send := func() {
				if resume {
					err = c.SendAt(frame, off)
					off += n
				} else {
					err = c.Send(frame)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
				t.Fatalf("Send allocates %.0f times per frame", allocs)
			}
		})
	}
}

// parseFrames is the naive reference parser: the payloads of the whole,
// non-empty frames before the first invalid header or the end of stream.
func parseFrames(stream []byte, tsz int) [][]byte {
	var frames [][]byte
	for len(stream) >= 4 {
		n := int(binary.LittleEndian.Uint32(stream))
		if n > MaxFrame || n%tsz != 0 || len(stream)-4 < n {
			break
		}
		if n > 0 {
			frames = append(frames, stream[4:4+n])
		}
		stream = stream[4+n:]
	}
	return frames
}

// FuzzServerFrames feeds an arbitrary byte stream through net.Pipe in
// arbitrary chunk sizes: chunks cycles through sizes 1..256 (one write
// when empty), and after 1024 writes the rest goes in one, which bounds
// the cost of an input. The sink must receive exactly the whole frames
// parseFrames finds. The small seeds are in testdata/fuzz; the one added
// here is a frame one tuple larger than the read buffer.
func FuzzServerFrames(f *testing.F) {
	const tsz = 4
	f.Add(wireFrame(nil, 0, readBufSize/8+1, false), []byte{100})
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		want := parseFrames(stream, tsz)
		sink := &frameSink{}
		s := &Server{sink: sink, tupleSize: tsz}
		srvConn, cliConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer cliConn.Close()
			for i := 0; len(stream) > 0; i++ {
				n := len(stream)
				if len(chunks) > 0 && i < 1024 {
					n = min(n, 1+int(chunks[i%len(chunks)]))
				}
				if _, err := cliConn.Write(stream[:n]); err != nil {
					return // the server hung up on an invalid header
				}
				stream = stream[n:]
			}
		}()
		_ = s.handle(srvConn)
		srvConn.Close()
		<-done
		if len(sink.frames) != len(want) {
			t.Fatalf("%d inserts, want %d", len(sink.frames), len(want))
		}
		for i := range want {
			if !bytes.Equal(sink.frames[i], want[i]) {
				t.Fatalf("insert %d differs from frame %d", i, i)
			}
		}
	})
}
