// Package ingest streams serialised tuples into the engine over TCP, the
// way the paper's evaluation feeds SABER from a 10 Gbps NIC (§6.1).
//
// The wire protocol is minimal and allocation-friendly: a stream of
// frames, each a 4-byte little-endian payload length followed by that
// many bytes of whole tuples. Tuples stay in their binary schema layout
// end to end — the receiver inserts the payload bytes directly into the
// query's circular input buffer without deserialisation, preserving
// SABER's lazy-deserialisation discipline (§5.1).
//
// Downstream of the sink, the engine's insert path copies the payload
// once, into the query's row ring. Tasks are views of that ring, and
// operators and the GPGPU stage read the rows in place.
//
// A frame costs one syscall at each end. The client writes header and
// payload with one writev. The server reads each connection through one
// fixed read buffer, so one read takes as many frames as the socket
// holds, and a frame that fits the buffer is handed to the sink straight
// out of it. The read deadline is re-armed before every read syscall, not
// every frame. A frame still reaches the sink only once its payload is
// read in full.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"saber/internal/fault"
	"saber/internal/obs"
)

// MaxFrame bounds a single frame's payload (16 MiB).
const MaxFrame = 16 << 20

// DefaultReadTimeout is the per-read idle deadline applied to every
// connection unless overridden with SetReadTimeout. It must be non-zero:
// connections are served strictly one at a time, so a dead or idle
// predecessor that never times out would block every later connection
// (and Close) forever.
const DefaultReadTimeout = 30 * time.Second

// closeGrace bounds how long Close lets the in-flight connection keep
// draining: long enough to read frames already buffered in the socket
// (a finished sender's tail must not be lost), short enough that a live
// idle sender cannot stall shutdown for its full read timeout.
const closeGrace = 250 * time.Millisecond

// acceptPoll is how long a closing server waits on an empty accept queue
// before it stops serving. Accept takes an already-queued connection at
// once, so this only absorbs a handshake still in flight.
const acceptPoll = 5 * time.Millisecond

// readBufSize is the server's read buffer per connection. A frame of up
// to this size is handed to the sink straight out of the buffer; a larger
// one is read into a side buffer grown to fit.
const readBufSize = 256 << 10

// Sink receives whole-tuple payloads in arrival order. A query handle's
// Insert method satisfies it.
//
// The server calls Insert once per frame, with that frame's whole payload
// (after a resume trim), in wire order, and reads nothing further from
// the connection until Insert returns. A frame that dies partway is never
// delivered. data is valid only during the call: it points into the
// server's read buffer, whose memory the next frames reuse, so a sink
// that keeps the bytes must copy them before it returns.
type Sink interface {
	Insert(data []byte)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(data []byte)

// Insert implements Sink.
func (f SinkFunc) Insert(data []byte) { f(data) }

// Server accepts tuple streams and forwards them to a sink.
//
// The server supports exactly ONE logical sender at a time. Connections
// are handled strictly in accept order, one at a time: a stream source is
// one logical sender, and a reconnecting sender's new connection must not
// overtake frames still buffered in its dead predecessor — the previous
// connection is drained to EOF (or its read deadline) before the next
// one's frames reach the sink, preserving stream order across failover.
// The flip side is that a second concurrent sender queues behind the
// first until it disconnects or idles past the read timeout; this is why
// the read timeout defaults to DefaultReadTimeout and should not be
// disabled outside tests — with it disabled, one idle-but-live connection
// starves every later connection indefinitely.
type Server struct {
	l         deadlineListener
	sink      Sink
	tupleSize int

	// resume, when set (EnableResume), switches the wire protocol to
	// resume frames: the server greets every connection with its durable
	// tuple cursor, each frame carries the absolute tuple offset of its
	// first tuple, and replayed tuples below the cursor are discarded or
	// trimmed instead of re-inserted — exactly-once across reconnects
	// that replay from a checkpoint cursor.
	resume bool
	cursor atomic.Int64 // next tuple index the sink expects

	// credits, when set (EnableCredits), adds credit-based flow control
	// to either protocol: the greeting additionally carries the window
	// (in tuples, after the resume cursor when both are enabled) and the
	// server returns 8-byte grant increments as it consumes frames, so a
	// well-behaved sender can never hold more than roughly one window of
	// tuples in flight — backpressure surfaces at the source instead of
	// as unbounded socket growth in front of a blocked sink.
	credits      bool
	creditWindow int64 // tuples

	// readTimeout, when positive, bounds how long a read may sit idle on a
	// connection before it is dropped (a stalled or half-dead peer must not
	// pin the single serving slot forever). Defaults to DefaultReadTimeout.
	readTimeout atomic.Int64 // nanoseconds

	sinkMu  sync.Mutex
	serveMu sync.Mutex // held by whichever of Serve and Close runs the accept loop
	closed  atomic.Bool

	// closeDeadline (unix nanoseconds, 0 = not closing) is the final read
	// deadline Close imposes on every remaining read, and the end of
	// Serve's drain of queued connections, bounding shutdown by
	// closeGrace instead of the full read timeout. active is the
	// connection currently being drained, so Close can re-arm a read
	// already blocked on the old deadline.
	closeDeadline atomic.Int64
	activeMu      sync.Mutex
	active        net.Conn

	// Telemetry.
	bytesIn        atomic.Int64
	framesIn       atomic.Int64
	conns          atomic.Int64
	emptyFrames    atomic.Int64 // zero-length frames (no-op keepalives)
	oversizeFrames atomic.Int64 // frames rejected for exceeding MaxFrame
	raggedFrames   atomic.Int64 // frames rejected for partial tuples
	deadlineDrops  atomic.Int64 // connections dropped by the read deadline
	connErrors     atomic.Int64 // connections ended by any other error
	resumeDups     atomic.Int64 // resume frames fully below the cursor, discarded
	resumeTrims    atomic.Int64 // resume frames straddling the cursor, prefix-trimmed
	resumeGaps     atomic.Int64 // resume frames starting past the cursor, rejected
	creditGrants   atomic.Int64 // grant messages written (credit mode)
	creditTuples   atomic.Int64 // tuples granted back to senders (credit mode)
}

// ServerStats is a point-in-time snapshot of the server's counters.
type ServerStats struct {
	BytesIn        int64
	Frames         int64
	Conns          int64
	EmptyFrames    int64
	OversizeFrames int64
	RaggedFrames   int64
	DeadlineDrops  int64
	ConnErrors     int64
	ResumeDups     int64
	ResumeTrims    int64
	ResumeGaps     int64
	CreditGrants   int64
	CreditTuples   int64
}

// deadlineListener is a listener whose Accept honours a deadline, as a
// TCP listener's does: Close uses it to wake Serve and to drain the
// connections already queued without blocking on an empty queue.
type deadlineListener interface {
	net.Listener
	SetDeadline(time.Time) error
}

// NewServer wraps an existing listener, which must support SetDeadline
// (a *net.TCPListener does). tupleSize is the stream schema's tuple
// size; frames that are not whole tuples are rejected and the offending
// connection closed.
func NewServer(l net.Listener, sink Sink, tupleSize int) (*Server, error) {
	if tupleSize <= 0 {
		return nil, fmt.Errorf("ingest: tuple size %d", tupleSize)
	}
	if sink == nil {
		return nil, errors.New("ingest: nil sink")
	}
	dl, ok := l.(deadlineListener)
	if !ok {
		return nil, fmt.Errorf("ingest: listener %T has no accept deadline", l)
	}
	s := &Server{l: dl, sink: sink, tupleSize: tupleSize}
	s.readTimeout.Store(int64(DefaultReadTimeout))
	return s, nil
}

// Listen starts a server on the given TCP address (e.g. "127.0.0.1:0").
func Listen(addr string, sink Sink, tupleSize int) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(l, sink, tupleSize)
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// BytesIn returns the total payload bytes received.
func (s *Server) BytesIn() int64 { return s.bytesIn.Load() }

// Frames returns the number of frames received.
func (s *Server) Frames() int64 { return s.framesIn.Load() }

// EnableResume switches the server to the resume protocol, seeding its
// durable tuple cursor (typically Handle.InputCursor after a Restore, or
// 0 on a cold start). Must be called before Serve; clients must use
// DialResume / ReconnectConfig.Resume. Every accepted connection is
// greeted with the current cursor so the sender knows where to replay
// from, and tuples below the cursor are discarded on arrival.
func (s *Server) EnableResume(cursor int64) {
	s.resume = true
	s.cursor.Store(cursor)
}

// Cursor returns the next tuple index the sink expects (resume mode).
func (s *Server) Cursor() int64 { return s.cursor.Load() }

// EnableCredits arms credit-based flow control with the given window (in
// tuples; values below 1 are clamped to 1). Must be called before Serve;
// clients must dial with the matching credit variant (DialCredits,
// DialResumeCredits, or ReconnectConfig.Credits). Composes with
// EnableResume: the greeting then carries cursor followed by window.
//
// Grants are batched: the server returns an 8-byte increment once a
// quarter window of tuples has been consumed since the last grant, and a
// sender may overdraw by at most one frame — so the in-flight bound is
// window plus one frame, not an exact window.
func (s *Server) EnableCredits(window int64) {
	if window < 1 {
		window = 1
	}
	s.credits = true
	s.creditWindow = window
}

// SetReadTimeout sets the per-read idle deadline for all connections,
// overriding DefaultReadTimeout. Safe to call concurrently with Serve.
// Passing 0 disables the deadline — do that only in tests: with serial
// connection handling, a deadline-less idle connection blocks every
// subsequent connection until it closes (see the Server doc comment).
func (s *Server) SetReadTimeout(d time.Duration) { s.readTimeout.Store(int64(d)) }

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		BytesIn:        s.bytesIn.Load(),
		Frames:         s.framesIn.Load(),
		Conns:          s.conns.Load(),
		EmptyFrames:    s.emptyFrames.Load(),
		OversizeFrames: s.oversizeFrames.Load(),
		RaggedFrames:   s.raggedFrames.Load(),
		DeadlineDrops:  s.deadlineDrops.Load(),
		ConnErrors:     s.connErrors.Load(),
		ResumeDups:     s.resumeDups.Load(),
		ResumeTrims:    s.resumeTrims.Load(),
		ResumeGaps:     s.resumeGaps.Load(),
		CreditGrants:   s.creditGrants.Load(),
		CreditTuples:   s.creditTuples.Load(),
	}
}

// RegisterMetrics mirrors the server's counters into reg under
// prefix.<counter> (canonical scheme: e.g. saber.ingest.in0.frames).
// Mirrors are read only at snapshot time, so registration adds no
// hot-path cost.
func (s *Server) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterFunc(prefix+".bytes.in", s.bytesIn.Load)
	reg.RegisterFunc(prefix+".frames", s.framesIn.Load)
	reg.RegisterFunc(prefix+".conns", s.conns.Load)
	reg.RegisterFunc(prefix+".frames.empty", s.emptyFrames.Load)
	reg.RegisterFunc(prefix+".frames.oversize", s.oversizeFrames.Load)
	reg.RegisterFunc(prefix+".frames.ragged", s.raggedFrames.Load)
	reg.RegisterFunc(prefix+".deadline.drops", s.deadlineDrops.Load)
	reg.RegisterFunc(prefix+".conn.errors", s.connErrors.Load)
	reg.RegisterFunc(prefix+".resume.dups", s.resumeDups.Load)
	reg.RegisterFunc(prefix+".resume.trims", s.resumeTrims.Load)
	reg.RegisterFunc(prefix+".resume.gaps", s.resumeGaps.Load)
	reg.RegisterFunc(prefix+".credit.grants", s.creditGrants.Load)
	reg.RegisterFunc(prefix+".credit.tuples", s.creditTuples.Load)
}

// Serve accepts connections until Close. It returns nil after Close and
// the first accept error otherwise.
func (s *Server) Serve() error {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	return s.serve()
}

// serve is Serve's accept loop; the caller holds serveMu.
func (s *Server) serve() error {
	for {
		cd := s.closeDeadline.Load()
		// Closing: serve only connections already queued — a sender that
		// finished before Close left its frames in one — until the queue
		// is empty or the close grace is over.
		if cd != 0 {
			if time.Now().UnixNano() >= cd {
				return nil
			}
			// A failed set means the listener is closed; Accept then fails.
			_ = s.l.SetDeadline(time.Now().Add(acceptPoll))
		}
		conn, err := s.l.Accept()
		if err != nil {
			if cd != 0 {
				return nil
			}
			if s.closed.Load() {
				continue // Close woke a blocked Accept: drain the queue
			}
			return err
		}
		s.conns.Add(1)
		// Synchronous: the next connection is not accepted (and cannot
		// deliver frames) until this one has been drained. See the Server
		// doc comment for why ordering requires this.
		s.activeMu.Lock()
		s.active = conn
		s.activeMu.Unlock()
		err = s.handle(conn)
		s.activeMu.Lock()
		s.active = nil
		s.activeMu.Unlock()
		if err != nil && !s.closed.Load() {
			// A malformed or broken connection only affects itself; a
			// reconnecting client resends the interrupted frame whole.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.deadlineDrops.Add(1)
			} else {
				s.connErrors.Add(1)
			}
		}
		conn.Close()
	}
}

// Close stops accepting and waits for Serve to finish, bounded by
// closeGrace: the in-flight connection and then every connection already
// queued on the listener drain to the sink — frames a finished sender
// left in a socket are not lost — but a live idle sender is timed out
// instead of stalling shutdown for its full read timeout. Close drains
// the queue itself when no Serve has taken it: a Serve goroutine not yet
// scheduled, or none at all. A Serve that starts after Close returns nil.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	deadline := time.Now().Add(closeGrace)
	s.closeDeadline.Store(deadline.UnixNano())
	s.activeMu.Lock()
	if s.active != nil {
		// Re-arm a read already blocked on the pre-close deadline.
		_ = s.active.SetReadDeadline(deadline)
	}
	s.activeMu.Unlock()
	// Wake a Serve blocked in Accept; it then drains the queue and returns.
	_ = s.l.SetDeadline(time.Now())
	s.serveMu.Lock()
	_ = s.serve() // closing: drains what is still queued, then returns nil
	s.serveMu.Unlock()
	return s.l.Close()
}

// handle processes one connection. A frame only reaches the sink after
// its payload has been read in full — a connection dying mid-frame
// discards the partial frame, so a reconnecting client that resends the
// whole frame yields exactly-once insertion at frame granularity. In
// resume mode the header additionally carries the frame's absolute tuple
// offset, and the cursor turns frame-level at-least-once replay into
// tuple-level exactly-once insertion.
func (s *Server) handle(conn net.Conn) error {
	hdrLen := 4
	if s.resume {
		hdrLen = resumeHeaderSize
		// Greet with the durable cursor: the sender replays from here.
		var g [8]byte
		binary.LittleEndian.PutUint64(g[:], uint64(s.cursor.Load()))
		if _, err := conn.Write(g[:]); err != nil {
			return fmt.Errorf("ingest: resume greeting: %w", err)
		}
	}
	if s.credits {
		// Advertise the credit window (after the cursor when both are on).
		var g [8]byte
		binary.LittleEndian.PutUint64(g[:], uint64(s.creditWindow))
		if _, err := conn.Write(g[:]); err != nil {
			return fmt.Errorf("ingest: credit greeting: %w", err)
		}
	}
	// Grants are per-connection state: a redialing sender resets its
	// balance from the fresh greeting, so nothing carries over. A grant
	// covers tuples consumed from the wire whatever the resume verdict —
	// duplicates and trims spent window space on the wire all the same.
	var pendingGrant int64
	grantThreshold := s.creditWindow / 4
	if grantThreshold < 1 {
		grantThreshold = 1
	}
	grant := func(tuples int64) error {
		if !s.credits {
			return nil
		}
		pendingGrant += tuples
		if pendingGrant < grantThreshold {
			return nil
		}
		// A write deadline keeps a sender that stopped reading grants from
		// pinning the serving slot forever (mirrors the read-side policy).
		if d := time.Duration(s.readTimeout.Load()); d > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(d))
		}
		var g [8]byte
		binary.LittleEndian.PutUint64(g[:], uint64(pendingGrant))
		if _, err := conn.Write(g[:]); err != nil {
			return fmt.Errorf("ingest: credit grant: %w", err)
		}
		s.creditGrants.Add(1)
		s.creditTuples.Add(pendingGrant)
		pendingGrant = 0
		return nil
	}
	br := bufio.NewReaderSize(deadlineReader{s, conn}, readBufSize)
	var big []byte // frames larger than the read buffer, grown to fit
	for {
		hdr, err := br.Peek(hdrLen)
		if err != nil {
			if len(hdr) == 0 && errors.Is(err, io.EOF) {
				return nil
			}
			return err // a truncated header ends the connection as an error
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		var off int64
		if s.resume {
			off = int64(binary.LittleEndian.Uint64(hdr[4:12]))
		}
		_, _ = br.Discard(hdrLen) // buffered: cannot fail
		switch {
		case n == 0:
			// A zero-length frame carries no tuples; tolerate it as a
			// keepalive rather than killing the connection.
			s.emptyFrames.Add(1)
			continue
		case n > MaxFrame:
			s.oversizeFrames.Add(1)
			return fmt.Errorf("ingest: frame of %d bytes exceeds limit", n)
		case n%s.tupleSize != 0:
			s.raggedFrames.Add(1)
			return fmt.Errorf("ingest: frame of %d bytes is not whole %d-byte tuples", n, s.tupleSize)
		}
		var payload []byte
		if n <= readBufSize {
			payload, err = br.Peek(n)
		} else {
			if cap(big) < n {
				big = make([]byte, n)
			}
			payload = big[:n]
			_, err = io.ReadFull(br, payload)
		}
		if err != nil {
			return fmt.Errorf("ingest: truncated frame: %w", err)
		}
		s.bytesIn.Add(int64(n))
		s.framesIn.Add(1)
		tuples := int64(n / s.tupleSize)
		if s.resume {
			// The payload has been consumed from the wire whatever the
			// verdict, so a discarded duplicate leaves the stream aligned.
			cur := s.cursor.Load()
			switch {
			case off+tuples <= cur:
				s.resumeDups.Add(1)
				payload = nil
			case off > cur:
				s.resumeGaps.Add(1)
				return fmt.Errorf("ingest: resume frame at tuple %d leaves a gap (cursor %d)", off, cur)
			case off < cur:
				s.resumeTrims.Add(1)
				payload = payload[(cur-off)*int64(s.tupleSize):]
			}
		}
		if payload != nil {
			s.sinkMu.Lock()
			s.sink.Insert(payload)
			if s.resume {
				s.cursor.Store(off + tuples)
			}
			s.sinkMu.Unlock()
		}
		if n <= readBufSize {
			_, _ = br.Discard(n) // peeked: cannot fail
		}
		// Granting after the sink returns ties the credit window to real
		// downstream consumption: a sink blocked on engine admission stops
		// the grant flow, and the sender pauses one window later.
		if err := grant(tuples); err != nil {
			return err
		}
	}
}

// deadlineReader re-arms the server's read deadline before every read
// syscall on conn, so each read gets the full idle allowance (or the
// close deadline) however many frames it returns.
type deadlineReader struct {
	s    *Server
	conn net.Conn
}

func (r deadlineReader) Read(p []byte) (int, error) {
	r.s.armDeadline(r.conn)
	return r.conn.Read(p)
}

func (s *Server) armDeadline(conn net.Conn) {
	if cd := s.closeDeadline.Load(); cd != 0 {
		// Shutting down: every remaining read shares the one fixed
		// close deadline, so a still-streaming sender cannot extend the
		// drain indefinitely.
		_ = conn.SetReadDeadline(time.Unix(0, cd))
		return
	}
	if d := time.Duration(s.readTimeout.Load()); d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = conn.SetReadDeadline(time.Time{})
	}
}

// resumeHeaderSize is the resume-mode frame header: 4-byte payload
// length followed by the 8-byte absolute tuple offset of the frame's
// first tuple.
const resumeHeaderSize = 12

// Client sends tuple frames to an ingest server.
type Client struct {
	conn   net.Conn
	hdr    [resumeHeaderSize]byte
	inj    *fault.Injector
	resume bool
	tsz    int

	// frame and bufs hold the header and payload of the frame being
	// sent, written with one writev; kept here so Send allocates nothing.
	frame [2][]byte
	bufs  net.Buffers

	// Credit mode: window is the server's advertised window (tuples),
	// balance the remaining spendable credits. balance may go negative —
	// a frame larger than the balance is sent on overdraft once the
	// balance is positive, so jumbo frames cannot wedge the protocol —
	// and recovers from the grant stream. Grants are read only while a
	// Send blocks on an exhausted balance (awaitCredit); until then they
	// wait in the socket's receive buffer.
	credits     bool
	window      int64
	balance     int64
	creditWaits int64
}

// Dial connects to an ingest server.
func Dial(addr string) (*Client, error) {
	c, _, err := dialStream(addr, 0, false, false)
	return c, err
}

// DialResume connects to a resume-mode server (EnableResume) and reads
// its greeting: the tuple index the server expects next. The caller
// replays its stream from that index using SendAt.
func DialResume(addr string, tupleSize int) (*Client, int64, error) {
	return dialStream(addr, tupleSize, true, false)
}

// DialCredits connects to a credit-mode server (EnableCredits). Send
// blocks while the credit balance is exhausted, pacing this sender to
// the server's real consumption rate.
func DialCredits(addr string, tupleSize int) (*Client, error) {
	c, _, err := dialStream(addr, tupleSize, false, true)
	return c, err
}

// DialResumeCredits connects to a server with both resume and credits
// enabled, returning the greeted replay cursor.
func DialResumeCredits(addr string, tupleSize int) (*Client, int64, error) {
	return dialStream(addr, tupleSize, true, true)
}

// dialStream is the one dial path: it reads whichever greeting fields
// the chosen protocol flags call for, in wire order (resume cursor, then
// credit window).
func dialStream(addr string, tupleSize int, resume, credits bool) (*Client, int64, error) {
	if (resume || credits) && tupleSize <= 0 {
		return nil, 0, fmt.Errorf("ingest: tuple size %d", tupleSize)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	var cursor int64
	if resume {
		var g [8]byte
		if _, err := io.ReadFull(conn, g[:]); err != nil {
			conn.Close()
			return nil, 0, fmt.Errorf("ingest: resume greeting: %w", err)
		}
		cursor = int64(binary.LittleEndian.Uint64(g[:]))
	}
	c := &Client{conn: conn, resume: resume, credits: credits, tsz: tupleSize}
	if credits {
		var g [8]byte
		if _, err := io.ReadFull(conn, g[:]); err != nil {
			conn.Close()
			return nil, 0, fmt.Errorf("ingest: credit greeting: %w", err)
		}
		c.window = int64(binary.LittleEndian.Uint64(g[:]))
		c.balance = c.window
	}
	return c, cursor, nil
}

// Window returns the server-advertised credit window in tuples (credit
// mode; 0 otherwise).
func (c *Client) Window() int64 { return c.window }

// CreditWaits counts Sends that blocked waiting for a credit grant.
func (c *Client) CreditWaits() int64 { return c.creditWaits }

// SetFault arms seeded fault injection on this client: fault.IngestDrop
// makes Send abort mid-frame and close the connection (simulating a
// sender crash), fault.IngestStall inserts the armed delay before the
// abort (simulating a wedged sender tripping the server's read deadline).
func (c *Client) SetFault(inj *fault.Injector) { c.inj = inj }

// Send transmits one frame of whole tuples. On an injected fault the
// frame is truncated on the wire and the connection closed; the caller
// must redial and resend the whole frame (see DialReconnect) — the
// server never forwards a partial frame to its sink. Not valid on a
// resume-mode client, where every frame must carry its offset (SendAt).
func (c *Client) Send(tuples []byte) error {
	if c.resume {
		return errors.New("ingest: Send on a resume client (use SendAt)")
	}
	return c.send(tuples, 0)
}

// SendAt transmits one frame of whole tuples starting at absolute tuple
// index off. Resume-mode clients only.
func (c *Client) SendAt(tuples []byte, off int64) error {
	if !c.resume {
		return errors.New("ingest: SendAt on a non-resume client")
	}
	if len(tuples)%c.tsz != 0 {
		return fmt.Errorf("ingest: frame of %d bytes is not whole %d-byte tuples", len(tuples), c.tsz)
	}
	return c.send(tuples, off)
}

func (c *Client) send(tuples []byte, off int64) error {
	if len(tuples) == 0 {
		return nil
	}
	if len(tuples) > MaxFrame {
		return fmt.Errorf("ingest: frame of %d bytes exceeds limit", len(tuples))
	}
	if c.credits {
		if err := c.awaitCredit(); err != nil {
			return err
		}
	}
	hdr := c.header(tuples, off)
	if c.inj.Decide(fault.IngestDrop) {
		return c.abortMidFrame(hdr, tuples, 0, fault.IngestDrop)
	}
	if d := c.inj.Stall(fault.IngestStall); d > 0 {
		return c.abortMidFrame(hdr, tuples, d, fault.IngestStall)
	}
	// WriteTo returns once the whole frame is in the socket, and leaves
	// both slots nil on success, so the payload is not kept.
	c.frame = [2][]byte{hdr, tuples}
	c.bufs = c.frame[:]
	if _, err := c.bufs.WriteTo(c.conn); err != nil {
		return err
	}
	if c.credits {
		// Spend only after the frame is fully on the wire: an aborted
		// frame never reaches the sink and is never granted back.
		c.balance -= int64(len(tuples) / c.tsz)
	}
	return nil
}

// awaitCredit blocks for grants until the balance is positive again. It
// is the only reader of the grant stream, so grants sent since the last
// blocking read stay unread in the socket. They stay few: the server sends
// at most one grant per frame, each covering at least its threshold
// (a quarter window) of tuples, and the client spends at most a window
// plus one frame between blocking reads. That is at most
// (window + frame tuples)/threshold + 1 grants of 8 bytes, far below any
// socket buffer, so the server's grant writes never wait on this client.
func (c *Client) awaitCredit() error {
	if c.balance > 0 {
		return nil
	}
	c.creditWaits++
	var g [8]byte
	for c.balance <= 0 {
		if _, err := io.ReadFull(c.conn, g[:]); err != nil {
			return err
		}
		c.balance += int64(binary.LittleEndian.Uint64(g[:]))
	}
	return nil
}

// header fills the frame header for this client's mode and returns the
// wire slice.
func (c *Client) header(tuples []byte, off int64) []byte {
	binary.LittleEndian.PutUint32(c.hdr[:4], uint32(len(tuples)))
	if !c.resume {
		return c.hdr[:4]
	}
	binary.LittleEndian.PutUint64(c.hdr[4:12], uint64(off))
	return c.hdr[:resumeHeaderSize]
}

// abortMidFrame writes the frame header and half the payload, optionally
// stalls, then closes the connection and reports the injected failure.
func (c *Client) abortMidFrame(hdr, tuples []byte, stall time.Duration, site fault.Site) error {
	_, _ = c.conn.Write(hdr)
	_, _ = c.conn.Write(tuples[:len(tuples)/2])
	if stall > 0 {
		time.Sleep(stall)
	}
	_ = c.conn.Close()
	return fault.Errorf(site, "connection lost mid-frame (%d bytes)", len(tuples))
}

// Close closes the connection. A credit-mode client first half-closes
// its side and discards grants until the server has read the stream to
// EOF: closing a socket with unread grants in its receive buffer resets
// the connection, and the server would fail its next grant write and
// drop the frames it had not read yet. The wait is bounded by
// DefaultReadTimeout; a server that closes or resets the connection ends
// it at once.
func (c *Client) Close() error {
	if tc, ok := c.conn.(*net.TCPConn); ok && c.credits {
		if err := tc.CloseWrite(); err == nil {
			_ = tc.SetReadDeadline(time.Now().Add(DefaultReadTimeout))
			_, _ = io.Copy(io.Discard, tc)
		}
	}
	return c.conn.Close()
}
