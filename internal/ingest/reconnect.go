package ingest

import (
	"fmt"
	"math/rand"
	"time"

	"saber/internal/fault"
)

// ReconnectConfig tunes the reconnecting client.
type ReconnectConfig struct {
	// MaxAttempts bounds how many connection attempts one Send makes
	// before giving up. Default 10.
	MaxAttempts int
	// BaseDelay is the first reconnect backoff; it doubles per attempt up
	// to MaxDelay, with jitter in [delay/2, delay). Defaults 500µs / 50ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter PRNG (deterministic replay).
	Seed int64
	// Fault arms seeded send-side fault injection (see Client.SetFault).
	Fault *fault.Injector

	// Resume speaks the resume protocol (server side: EnableResume): the
	// client tracks absolute tuple offsets, keeps a bounded replay window
	// of recently sent tuples, and on every redial retransmits from the
	// server's greeted cursor — so a server restarted from a checkpoint
	// gets the lost suffix again, exactly once. Requires TupleSize.
	Resume bool
	// TupleSize is the stream schema's tuple size (resume mode only).
	TupleSize int
	// ReplayWindow bounds the replay buffer in bytes, rounded down to
	// whole tuples; a redial whose greeted cursor has fallen out of the
	// window fails the Send. It must cover the server's checkpoint lag:
	// cursor distance beyond the window is unrecoverable from this client
	// alone. The window is a ring written in place, so the cost of a Send
	// does not depend on its size. Default 16 MiB.
	ReplayWindow int

	// Credits speaks the credit-granting flow-control protocol (server
	// side: EnableCredits): Send blocks while the greeted window is
	// exhausted, pacing this sender to the server's consumption. Composes
	// with Resume — a redial re-reads the greeting, so the balance resets
	// with the connection. Requires TupleSize.
	Credits bool
}

func (c ReconnectConfig) withDefaults() ReconnectConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 500 * time.Microsecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	if c.ReplayWindow <= 0 {
		c.ReplayWindow = 16 << 20
	}
	return c
}

// replayBuf is a ring over the most recently sent tuples, addressed by
// absolute tuple index: tuple t lives at byte (t mod size/tsz)·tsz. size
// is a whole number of tuples, so the wrap point is a tuple boundary and
// an append copies each tuple once, without shifting the window. buf grows
// by append until it holds size bytes and is overwritten in place after.
type replayBuf struct {
	buf  []byte
	size int // capacity in bytes, a positive multiple of tsz
	tsz  int
	next int64 // absolute index one past the newest tuple
}

// base is the absolute index of the oldest retained tuple.
func (rb *replayBuf) base() int64 { return rb.next - int64(len(rb.buf)/rb.tsz) }

func (rb *replayBuf) pos(t int64) int { return int(t%int64(rb.size/rb.tsz)) * rb.tsz }

// append adds whole tuples at next; of a frame larger than the ring only
// its newest size bytes are kept.
func (rb *replayBuf) append(tuples []byte) {
	if over := len(tuples) - rb.size; over > 0 {
		rb.next += int64(over / rb.tsz)
		tuples = tuples[over:]
	}
	for len(tuples) > 0 {
		pos := rb.pos(rb.next)
		n := min(len(tuples), rb.size-pos)
		if grow := pos + n - len(rb.buf); grow > 0 {
			rb.buf = append(rb.buf, make([]byte, grow)...)
		}
		copy(rb.buf[pos:], tuples[:n])
		rb.next += int64(n / rb.tsz)
		tuples = tuples[n:]
	}
}

// slice returns the retained bytes for tuple range [from, to) as at most
// two slices, the second non-empty only when the range crosses the wrap
// point, or false when the range is not inside [base, next).
func (rb *replayBuf) slice(from, to int64) (a, b []byte, ok bool) {
	if from < rb.base() || to < from || to > rb.next {
		return nil, nil, false
	}
	pos, n := rb.pos(from), int(to-from)*rb.tsz
	k := min(n, len(rb.buf)-pos)
	return rb.buf[pos : pos+k], rb.buf[:n-k], true
}

// ReconnectClient is a Client that transparently redials after connection
// failures, resending the interrupted frame whole. Because the server
// only sinks fully received frames, a frame is inserted exactly once no
// matter how many times the connection dies mid-transfer. Like Client it
// serves a single sending goroutine.
type ReconnectClient struct {
	cfg  ReconnectConfig
	addr string
	c    *Client
	rnd  *rand.Rand

	// replay holds the window of sent tuples behind replay.next, the
	// absolute index of the next unsent tuple, for post-reconnect
	// retransmission (resume mode only).
	replay replayBuf

	reconnects  int64
	resends     int64
	creditWaits int64 // accumulated from closed connections' clients
}

// DialReconnect connects a reconnecting client to an ingest server.
func DialReconnect(addr string, cfg ReconnectConfig) (*ReconnectClient, error) {
	cfg = cfg.withDefaults()
	if (cfg.Resume || cfg.Credits) && cfg.TupleSize <= 0 {
		return nil, fmt.Errorf("ingest: resume/credit client needs TupleSize (got %d)", cfg.TupleSize)
	}
	rc := &ReconnectClient{
		cfg:  cfg,
		addr: addr,
		rnd:  rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Resume {
		rc.replay = replayBuf{size: max(cfg.ReplayWindow/cfg.TupleSize, 1) * cfg.TupleSize, tsz: cfg.TupleSize}
	}
	if err := rc.redial(); err != nil {
		return nil, err
	}
	return rc, nil
}

func (rc *ReconnectClient) redial() error {
	c, cursor, err := dialStream(rc.addr, rc.cfg.TupleSize, rc.cfg.Resume, rc.cfg.Credits)
	if err != nil {
		return err
	}
	c.SetFault(rc.cfg.Fault)
	if !rc.cfg.Resume {
		rc.c = c
		return nil
	}
	if cursor == 0 && rc.replay.next == 0 {
		// Fresh stream on both sides; nothing to replay.
		rc.c = c
		return nil
	}
	if cursor < rc.replay.next {
		// The server lost tuples we already sent (restart from an older
		// checkpoint): retransmit [cursor, next) from the replay window.
		a, b, ok := rc.replay.slice(cursor, rc.replay.next)
		if !ok {
			rc.creditWaits += c.CreditWaits()
			c.Close()
			return fmt.Errorf("ingest: server cursor %d is outside the replay window [%d, %d)",
				cursor, rc.replay.base(), rc.replay.next)
		}
		chunk := MaxFrame - MaxFrame%rc.cfg.TupleSize
		for _, data := range [2][]byte{a, b} {
			for len(data) > 0 {
				n := min(len(data), chunk)
				if err := c.SendAt(data[:n], cursor); err != nil {
					rc.creditWaits += c.CreditWaits()
					c.Close()
					return err
				}
				cursor += int64(n / rc.cfg.TupleSize)
				data = data[n:]
				rc.resends++
			}
		}
	}
	// cursor > next means the server has more than we remember sending
	// (e.g. this client restarted); our next frames will be discarded or
	// trimmed server-side until the offsets converge.
	rc.c = c
	return nil
}

// backoff returns the jittered delay for attempt i (0-based): the base
// delay doubled per attempt, capped, with the final value drawn from
// [delay/2, delay) so synchronised failures don't reconnect in lockstep.
func (rc *ReconnectClient) backoff(i int) time.Duration {
	d := rc.cfg.BaseDelay << uint(i)
	if d <= 0 || d > rc.cfg.MaxDelay {
		d = rc.cfg.MaxDelay
	}
	half := d / 2
	return half + time.Duration(rc.rnd.Int63n(int64(half)+1))
}

// Send transmits one frame, redialing and resending it whole after any
// connection failure, until it succeeds or MaxAttempts is exhausted. In
// resume mode the frame is stamped with the stream's running tuple
// offset and, once sent, retained in the replay window, and every redial
// first retransmits whatever the server's greeting says it is missing.
func (rc *ReconnectClient) Send(tuples []byte) error {
	if rc.cfg.Resume && len(tuples)%rc.cfg.TupleSize != 0 {
		return fmt.Errorf("ingest: frame of %d bytes is not whole %d-byte tuples",
			len(tuples), rc.cfg.TupleSize)
	}
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if rc.c == nil {
			if attempt > 0 {
				time.Sleep(rc.backoff(attempt - 1))
			}
			if err := rc.redial(); err != nil {
				lastErr = err
				continue
			}
			rc.reconnects++
		}
		if attempt > 0 {
			rc.resends++
		}
		var err error
		if rc.cfg.Resume {
			err = rc.c.SendAt(tuples, rc.replay.next)
		} else {
			err = rc.c.Send(tuples)
		}
		if err == nil {
			if rc.cfg.Resume {
				// Only a sent frame joins the window, so a failed Send
				// leaves nothing that a retry of the same frame would
				// duplicate. A redial replays [cursor, next), which never
				// needs the frame in flight.
				rc.replay.append(tuples)
			}
			return nil
		}
		lastErr = err
		rc.creditWaits += rc.c.CreditWaits()
		_ = rc.c.Close()
		rc.c = nil
	}
	return fmt.Errorf("ingest: send failed after %d attempts: %w", rc.cfg.MaxAttempts, lastErr)
}

// Next returns the absolute tuple index of the next unsent tuple
// (resume mode; 0 otherwise).
func (rc *ReconnectClient) Next() int64 { return rc.replay.next }

// Reconnects counts successful redials.
func (rc *ReconnectClient) Reconnects() int64 { return rc.reconnects }

// Resends counts frame retransmissions after a failure.
func (rc *ReconnectClient) Resends() int64 { return rc.resends }

// CreditWaits counts Sends that blocked on the credit window, summed
// across every connection this client has used (credit mode).
func (rc *ReconnectClient) CreditWaits() int64 {
	n := rc.creditWaits
	if rc.c != nil {
		n += rc.c.CreditWaits()
	}
	return n
}

// Close closes the current connection, if any. In credit mode it waits
// for the server to read the connection to EOF (see Client.Close).
// Otherwise it waits for nothing: a nil Send, and then Close, only mean
// the frames are in a socket buffer. They reach the sink if the server
// serves this connection before its Close grace ends (Server.Close drains
// queued connections too); only resume mode can re-deliver frames a
// server dropped.
func (rc *ReconnectClient) Close() error {
	if rc.c == nil {
		return nil
	}
	rc.creditWaits += rc.c.CreditWaits()
	err := rc.c.Close()
	rc.c = nil
	return err
}
