package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"saber/internal/fault"
)

// startResumeServer is startServer with the resume protocol armed at the
// given cursor.
func startResumeServer(t *testing.T, sink Sink, tupleSize int, cursor int64) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", sink, tupleSize)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableResume(cursor)
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { s.Close() })
	return s
}

// stream returns n 8-byte tuples with recognisable contents.
func stream(n int) []byte {
	out := make([]byte, n*8)
	for i := range out {
		out[i] = byte(i * 13)
	}
	return out
}

func waitBytes(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.BytesIn() < want {
		if time.Now().After(deadline) {
			t.Fatalf("server received %d bytes, want %d", srv.BytesIn(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResumeGreetingAndSendAt: the greeting carries the seeded cursor and
// offset frames at the cursor flow straight through.
func TestResumeGreetingAndSendAt(t *testing.T) {
	sink := &collectSink{}
	srv := startResumeServer(t, sink, 8, 5)

	c, cursor, err := DialResume(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cursor != 5 {
		t.Fatalf("greeting cursor %d, want 5", cursor)
	}
	data := stream(4)
	if err := c.SendAt(data, 5); err != nil {
		t.Fatal(err)
	}
	waitBytes(t, srv, int64(len(data)))
	srv.Close()
	if !bytes.Equal(sink.bytes(), data) {
		t.Fatal("sink content mismatch")
	}
	if got := srv.Cursor(); got != 9 {
		t.Fatalf("cursor %d after 4 tuples from 5, want 9", got)
	}
}

// TestResumeDedupAndTrim: frames below the cursor are discarded, frames
// straddling it are prefix-trimmed — the sink sees each tuple once.
func TestResumeDedupAndTrim(t *testing.T) {
	sink := &collectSink{}
	srv := startResumeServer(t, sink, 8, 0)

	c, _, err := DialResume(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := stream(10)
	if err := c.SendAt(data[:6*8], 0); err != nil { // tuples [0,6)
		t.Fatal(err)
	}
	if err := c.SendAt(data[2*8:4*8], 2); err != nil { // dup [2,4)
		t.Fatal(err)
	}
	if err := c.SendAt(data[4*8:], 4); err != nil { // straddle [4,10): trim to [6,10)
		t.Fatal(err)
	}
	waitBytes(t, srv, int64(len(data))+2*8+2*8)
	srv.Close()
	if !bytes.Equal(sink.bytes(), data) {
		t.Fatalf("sink has %d bytes, want %d exactly once", len(sink.bytes()), len(data))
	}
	st := srv.Stats()
	if st.ResumeDups != 1 || st.ResumeTrims != 1 {
		t.Fatalf("stats %+v, want 1 dup and 1 trim", st)
	}
}

// TestResumeGapRejected: a frame starting past the cursor would lose
// tuples silently; the server must kill the connection instead.
func TestResumeGapRejected(t *testing.T) {
	sink := &collectSink{}
	srv := startResumeServer(t, sink, 8, 0)

	c, _, err := DialResume(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendAt(stream(2), 7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ResumeGaps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gap frame never rejected")
		}
		time.Sleep(time.Millisecond)
	}
	if len(sink.bytes()) != 0 {
		t.Fatal("gap frame reached the sink")
	}
}

// restartResumeServer closes srv and starts a resume server on the same
// address, as a restart from a checkpoint at cursor would.
func restartResumeServer(t *testing.T, srv *Server, sink Sink, cursor int64) *Server {
	t.Helper()
	srv.Close()
	s, err := Listen(srv.Addr().String(), sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableResume(cursor)
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestResumeReconnectReplaysFromGreeting is the crash-recovery path: the
// server restarts with a cursor behind the client's position and the
// reconnecting client retransmits the missing suffix from its replay
// window, exactly once. With a 7-tuple window the 10-tuple frames
// overflow the ring and the replayed suffix [55, 60) straddles its wrap
// point (tuple 55 sits in the ring's last slot).
func TestResumeReconnectReplaysFromGreeting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
		cursor int64
	}{
		{"default-window", 0, 40},
		{"wrapped-window", 7 * 8, 55},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sinkA := &collectSink{}
			srvA := startResumeServer(t, sinkA, 8, 0)
			inj := fault.New(7)
			rc, err := DialReconnect(srvA.Addr().String(), ReconnectConfig{
				Seed:         7,
				Resume:       true,
				TupleSize:    8,
				ReplayWindow: tc.window,
				BaseDelay:    100 * time.Microsecond,
				MaxDelay:     2 * time.Millisecond,
				Fault:        inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			data := stream(100)
			for off := 0; off < 60*8; off += 10 * 8 {
				if err := rc.Send(data[off : off+10*8]); err != nil {
					t.Fatal(err)
				}
			}
			waitBytes(t, srvA, 60*8)

			// "Restart" on the same address from an older checkpoint: the
			// new server only remembers tuples [0, cursor). The next frame
			// dies on the stale connection, so the client redials at once
			// rather than after writes into the dead socket have moved the
			// window past the cursor.
			sinkB := &collectSink{}
			srvB := restartResumeServer(t, srvA, sinkB, tc.cursor)
			inj.Arm(fault.IngestDrop, fault.Spec{Rate: 1, Limit: 1})
			for off := 60 * 8; off < len(data); off += 10 * 8 {
				if err := rc.Send(data[off : off+10*8]); err != nil {
					t.Fatal(err)
				}
			}
			rc.Close()
			waitBytes(t, srvB, int64(len(data))-tc.cursor*8)
			srvB.Close()
			if rc.Next() != 100 {
				t.Fatalf("client next %d, want 100", rc.Next())
			}
			if !bytes.Equal(sinkB.bytes(), data[tc.cursor*8:]) {
				t.Fatalf("restarted sink has %d tuples, want tuples [%d,100) exactly once",
					len(sinkB.bytes())/8, tc.cursor)
			}
		})
	}
}

// TestResumeRetryAfterFailedSend: a Send that exhausts MaxAttempts must
// leave the replay window as it was, so retrying the same frame and then
// replaying after a restart still delivers each tuple at its own index.
func TestResumeRetryAfterFailedSend(t *testing.T) {
	sinkA := &collectSink{}
	srvA := startResumeServer(t, sinkA, 8, 0)
	inj := fault.New(3)
	// The fifth and sixth frames on the wire die: both attempts of the
	// Send of tuples [40, 50).
	inj.Arm(fault.IngestDrop, fault.Spec{Rate: 1, After: 4, Limit: 2})
	rc, err := DialReconnect(srvA.Addr().String(), ReconnectConfig{
		Seed:        3,
		Resume:      true,
		TupleSize:   8,
		MaxAttempts: 2,
		BaseDelay:   100 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
		Fault:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := stream(100)
	for off := 0; off < 40*8; off += 10 * 8 {
		if err := rc.Send(data[off : off+10*8]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Send(data[40*8 : 50*8]); err == nil {
		t.Fatal("Send succeeded through two injected drops")
	}
	if rc.Next() != 40 {
		t.Fatalf("client next %d after a failed Send, want 40", rc.Next())
	}
	for _, r := range [][2]int{{40, 50}, {50, 55}} {
		if err := rc.Send(data[r[0]*8 : r[1]*8]); err != nil {
			t.Fatal(err)
		}
	}
	waitBytes(t, srvA, 55*8)

	sinkB := &collectSink{}
	srvB := restartResumeServer(t, srvA, sinkB, 45)
	inj.Arm(fault.IngestDrop, fault.Spec{Rate: 1, Limit: 1})
	for off := 55 * 8; off < len(data); off += 5 * 8 {
		if err := rc.Send(data[off : off+5*8]); err != nil {
			t.Fatal(err)
		}
	}
	rc.Close()
	waitBytes(t, srvB, (100-45)*8)
	srvB.Close()
	if got := sinkB.bytes(); !bytes.Equal(got, data[45*8:]) {
		t.Fatalf("restarted sink has %d tuples, want tuples [45,100) exactly once, each at its own index", len(got)/8)
	}
}

// TestResumeReconnectUnderFaults mixes the resume protocol with seeded
// mid-frame disconnects: offsets must keep the sink exactly-once even
// when frames die on the wire and are resent.
func TestResumeReconnectUnderFaults(t *testing.T) {
	sink := &collectSink{}
	srv := startResumeServer(t, sink, 8, 0)

	inj := fault.New(42)
	inj.Arm(fault.IngestDrop, fault.Spec{Rate: 0.3})
	rc, err := DialReconnect(srv.Addr().String(), ReconnectConfig{
		Seed:      42,
		Resume:    true,
		TupleSize: 8,
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
		Fault:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 200; i++ {
		frame := make([]byte, 8*(1+i%4))
		for j := range frame {
			frame[j] = byte(i*7 + j)
		}
		if err := rc.Send(frame); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	rc.Close()
	if rc.Reconnects() == 0 || inj.TotalInjections() == 0 {
		t.Fatalf("no faults exercised: reconnects=%d injections=%d", rc.Reconnects(), inj.TotalInjections())
	}
	waitBytes(t, srv, int64(len(want)))
	srv.Close()
	if !bytes.Equal(sink.bytes(), want) {
		t.Fatalf("sink has %d bytes, want %d exactly once", len(sink.bytes()), len(want))
	}
	if rc.Next() != int64(len(want)/8) {
		t.Fatalf("client next %d, want %d", rc.Next(), len(want)/8)
	}
}

// TestReplayWindowTrimsAligned exercises the bounded replay buffer
// directly: overflow drops whole tuples from the front and slice
// refuses ranges that fell out.
func TestReplayWindowTrimsAligned(t *testing.T) {
	rb := replayBuf{size: 5 * 8, tsz: 8}
	data := stream(12)
	for i := 0; i < 12; i += 3 {
		rb.append(data[i*8 : (i+3)*8])
	}
	if rb.base() != 7 {
		t.Fatalf("base %d after trimming to a 5-tuple window, want 7", rb.base())
	}
	if a, b, ok := rb.slice(7, 12); !ok || len(b) != 2*8 || !bytes.Equal(append(a[:len(a):len(a)], b...), data[7*8:]) {
		t.Fatal("retained window should cover tuples [7,12), wrapping after tuple 9")
	}
	if _, _, ok := rb.slice(6, 12); ok {
		t.Fatal("slice before the window must fail")
	}
	if _, _, ok := rb.slice(7, 13); ok {
		t.Fatal("slice past the window must fail")
	}
}

// naiveReplay is the replay window as a flat buffer: append at the end,
// trim whole tuples from the front. It is the model replayBuf must match.
type naiveReplay struct {
	buf  []byte
	base int64
	max  int
	tsz  int
}

func (m *naiveReplay) append(tuples []byte) {
	m.buf = append(m.buf, tuples...)
	if over := len(m.buf) - m.max; over > 0 {
		trim := (over + m.tsz - 1) / m.tsz * m.tsz
		m.base += int64(trim / m.tsz)
		m.buf = m.buf[trim:]
	}
}

func (m *naiveReplay) slice(from, to int64) ([]byte, bool) {
	if from < m.base || to < from || to > m.base+int64(len(m.buf)/m.tsz) {
		return nil, false
	}
	return m.buf[(from-m.base)*int64(m.tsz) : (to-m.base)*int64(m.tsz)], true
}

// TestReplayRingMatchesModel drives the ring and the flat model with the
// same random frames (some larger than the window) and compares random
// slices, including ones across the wrap point and the whole window.
func TestReplayRingMatchesModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tsz := 1 + rnd.Intn(12)
		window := (1 + rnd.Intn(16)) * tsz
		rb := replayBuf{size: window, tsz: tsz}
		m := naiveReplay{max: window, tsz: tsz}
		var seq byte
		for step := 0; step < 60; step++ {
			frame := make([]byte, rnd.Intn(2*window/tsz+2)*tsz)
			for i := range frame {
				seq++
				frame[i] = seq
			}
			rb.append(frame)
			m.append(frame)
			next := m.base + int64(len(m.buf)/tsz)
			if rb.next != next || rb.base() != m.base || len(rb.buf) != len(m.buf) {
				t.Fatalf("trial %d step %d: ring [%d,%d) holding %d bytes, model [%d,%d) holding %d",
					trial, step, rb.base(), rb.next, len(rb.buf), m.base, next, len(m.buf))
			}
			ranges := [][2]int64{{m.base, next}, {next, next}}
			for i := 0; i < 8; i++ {
				from := m.base - 2 + rnd.Int63n(next-m.base+4)
				ranges = append(ranges, [2]int64{from, from - 1 + rnd.Int63n(next-from+3)})
			}
			for _, r := range ranges {
				a, b, ok := rb.slice(r[0], r[1])
				want, wantOK := m.slice(r[0], r[1])
				if ok != wantOK {
					t.Fatalf("trial %d step %d: slice%v ok=%v, model %v (window [%d,%d))",
						trial, step, r, ok, wantOK, m.base, next)
				}
				if len(a)%tsz != 0 || len(b)%tsz != 0 || !bytes.Equal(append(a[:len(a):len(a)], b...), want) {
					t.Fatalf("trial %d step %d: slice%v returned %d+%d bytes, model %d",
						trial, step, r, len(a), len(b), len(want))
				}
			}
		}
	}
}

// BenchmarkReplayAppend appends 16 KiB frames of 32-byte tuples to a full
// replay window. A ring copies each frame once, so the per-frame cost
// does not depend on the window size.
func BenchmarkReplayAppend(b *testing.B) {
	const frame, tsz = 16 << 10, 32
	data := make([]byte, frame)
	for _, window := range []int{1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("window=%dMiB", window>>20), func(b *testing.B) {
			rb := replayBuf{size: window, tsz: tsz}
			for i := 0; i < window/frame; i++ {
				rb.append(data)
			}
			b.SetBytes(frame)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.append(data)
			}
		})
	}
}
