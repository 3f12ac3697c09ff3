package harness

import (
	"bytes"
	"fmt"
	"sync"

	"saber/internal/schema"
)

// streamChecker validates one query's output stream incrementally as the
// engine's drain emits chunks, and once more at end of stream. Checkers
// verify machine-checkable invariants, never golden outputs.
type streamChecker interface {
	// consume validates the next ordered chunk of packed output tuples.
	// The engine serialises sink calls (one drainer at a time), but
	// implementations lock anyway so a broken drain that calls the sink
	// concurrently corrupts no checker state and still surfaces as an
	// invariant violation rather than a checker race.
	consume(rows []byte)
	// finish validates the end-of-stream invariants given the number of
	// tuples fed to the query and the input fingerprint.
	finish(tuplesIn int64, fingerprint int64)
	// tuplesOut returns the number of output tuples seen.
	tuplesOut() int64
	// violations returns the recorded invariant violations.
	violations() []error
}

// violationLog caps recorded violations so a systemic failure reports the
// first occurrences instead of flooding memory.
type violationLog struct {
	errs    []error
	dropped int
}

const maxViolations = 16

func (l *violationLog) addf(format string, args ...any) {
	if len(l.errs) >= maxViolations {
		l.dropped++
		return
	}
	l.errs = append(l.errs, fmt.Errorf(format, args...))
}

func (l *violationLog) list() []error {
	if l.dropped > 0 {
		return append(l.errs[:len(l.errs):len(l.errs)],
			fmt.Errorf("... and %d further violations suppressed", l.dropped))
	}
	return l.errs
}

// tupleChecker verifies the identity workloads (passthrough, jitter):
// the output must be the input stream, exactly once, in order.
//
//   - tuple integrity: every output tuple's checksum field matches its
//     content (catches torn reads, buffer corruption, wrap-around bugs),
//     and a tuple whose checksum holds must still be byte for byte the
//     input tuple its seq names;
//   - exactly-once + total order: the seq field must count 0,1,2,...
//     with no gap, repeat or inversion (catches drops, duplicates and
//     reordering at the first divergent tuple);
//   - timestamp monotonicity: non-decreasing across the whole stream;
//   - conservation: the XOR of output tuple checksums equals the input
//     fingerprint and the tuple count equals the input count.
//
// Together these demand the output be the input stream exactly.
//
// Under a shedding overload policy (shedding set) a seq gap is a shed
// tuple, not a bug; repeats and inversions still are. Conservation is
// then checked against the shed ledger: emitted + shed == offered. The
// run feeds the engine's shed total in via setShed before finish;
// dropping the ledger entry for even one tuple breaks the equation (the
// mutation self-test relies on exactly this). When the ledger reports
// zero shed tuples the policy never actuated and the exact checks apply.
type tupleChecker struct {
	mu          sync.Mutex
	log         violationLog
	in          []byte // the input stream
	shedding    bool
	nextSeq     int64
	lastTS      int64
	fingerprint int64
	n           int64
	shed        int64
}

func (c *tupleChecker) consume(rows []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tsz := StreamSchema.TupleSize()
	if len(rows)%tsz != 0 {
		c.log.addf("output chunk of %d bytes is not whole tuples (tuple size %d)", len(rows), tsz)
	}
	for i := 0; i+tsz <= len(rows); i += tsz {
		t := rows[i : i+tsz]
		ts := StreamSchema.ReadInt64(t, 0)
		seq := StreamSchema.ReadInt64(t, 1)
		val := StreamSchema.ReadInt64(t, 2)
		sum := StreamSchema.ReadInt64(t, 3)
		if want := tupleChecksum(ts, seq, val); sum != want {
			c.log.addf("tuple %d (seq %d): checksum %#x, want %#x (corrupted tuple)", c.n, seq, sum, want)
		} else if !matchesInput(c.in, t, seq) {
			c.log.addf("tuple %d (seq %d): differs from input tuple %d", c.n, seq, seq)
		}
		switch {
		case seq < c.nextSeq:
			c.log.addf("tuple %d: seq %d after %d already emitted (duplicate or reorder)", c.n, seq, c.nextSeq)
		case seq > c.nextSeq && !c.shedding:
			c.log.addf("tuple %d: seq %d skips ahead of %d (lost tuples or reorder)", c.n, seq, c.nextSeq)
		}
		// Resync past a gap so one gap reports once.
		c.nextSeq = max(c.nextSeq, seq+1)
		if ts < c.lastTS {
			c.log.addf("tuple %d: timestamp %d after %d (output order not monotonic)", c.n, ts, c.lastTS)
		}
		c.lastTS = ts
		c.fingerprint ^= sum
		c.n++
	}
}

// matchesInput reports whether t is the input stream's tuple seq.
func matchesInput(in, t []byte, seq int64) bool {
	tsz := int64(StreamSchema.TupleSize())
	return seq >= 0 && (seq+1)*tsz <= int64(len(in)) && bytes.Equal(t, in[seq*tsz:(seq+1)*tsz])
}

// setShed records the engine's total shed-tuple count (policy gaps plus
// admission drops) for this query. Must be called before finish.
func (c *tupleChecker) setShed(total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shed = total
}

func (c *tupleChecker) finish(tuplesIn, fingerprint int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shed != 0 {
		if c.n+c.shed != tuplesIn {
			c.log.addf("shed conservation: %d out + %d shed != %d in (tuples leaked or double-counted)",
				c.n, c.shed, tuplesIn)
		}
		return
	}
	if c.n != tuplesIn {
		c.log.addf("conservation: %d tuples out, %d in", c.n, tuplesIn)
	}
	if c.fingerprint != fingerprint {
		c.log.addf("conservation: output fingerprint %#x != input %#x", c.fingerprint, fingerprint)
	}
}

func (c *tupleChecker) tuplesOut() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *tupleChecker) violations() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.list()
}

// aggChecker verifies the tumbling COUNT(*) workloads exactly. Window k
// covers input tuples [k·W, min((k+1)·W, N)): the harness stream's
// timestamps advance by one per tuple, so the count-based and the
// time-based window cut it at the same boundaries. Its output row must
// carry the timestamp of the window's last input tuple and the window's
// tuple count, in window order, and there must be exactly ⌈N/W⌉ rows —
// the partial last window included, which the end-of-stream flush emits.
// Those two fields are the whole row, so the check is byte-exact: a
// drop, duplicate or misassigned tuple anywhere in the pipeline moves a
// count or a boundary.
type aggChecker struct {
	mu     sync.Mutex
	log    violationLog
	out    *schema.Schema
	in     []byte // the input stream
	window int64  // tuples per window
	n      int64
}

func (c *aggChecker) consume(rows []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	osz := c.out.TupleSize()
	if len(rows)%osz != 0 {
		c.log.addf("output chunk of %d bytes is not whole tuples (tuple size %d)", len(rows), osz)
	}
	tuples := int64(len(c.in) / StreamSchema.TupleSize())
	for i := 0; i+osz <= len(rows); i += osz {
		t := rows[i : i+osz]
		ts, count := c.out.Timestamp(t), c.out.ReadInt(t, 1)
		lo := c.n * c.window
		hi := min(lo+c.window, tuples)
		if lo >= tuples {
			c.log.addf("window %d (timestamp %d, count %d): past the end of a %d-tuple stream", c.n, ts, count, tuples)
		} else if wantTS := StreamSchema.Timestamp(StreamSchema.TupleAt(c.in, int(hi-1))); ts != wantTS || count != hi-lo {
			c.log.addf("window %d: timestamp %d count %d, want timestamp %d count %d", c.n, ts, count, wantTS, hi-lo)
		}
		c.n++
	}
}

func (c *aggChecker) finish(tuplesIn, _ int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want := (tuplesIn + c.window - 1) / c.window; c.n != want {
		c.log.addf("conservation: %d windows out, want %d for %d tuples in", c.n, want, tuplesIn)
	}
}

func (c *aggChecker) tuplesOut() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *aggChecker) violations() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.list()
}
