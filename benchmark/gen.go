package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"
)

// Byte offsets of the SynSchema fields the generator and the reference
// evaluator touch (timestamp int64, a1 float32, a2..a6 int32).
const (
	offTS = 0
	offA1 = 8
	offA2 = 12
	offA3 = 16
	offA4 = 20
	offA5 = 24
	offA6 = 28
)

var le = binary.LittleEndian

// epoch anchors nowNs on the monotonic clock.
var epoch = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// genPool generates the poolTuples-tuple input pool for a seed. a1 is a
// multiple of 1/64 below 100, so every sum of up to 2^20 of them is exact in
// float64 and no evaluation order can change an aggregate's bytes. a3 and a4
// are uniform in [0, 1024); a2 is uniform in [0, groups) or any int32.
func genPool(seed int64, groups int32) []byte {
	rnd := rand.New(rand.NewSource(seed))
	pool := make([]byte, poolBytes)
	for i := 0; i < poolTuples; i++ {
		t := pool[i*tupleSize : (i+1)*tupleSize]
		r1, r2 := rnd.Uint64(), rnd.Uint64()
		a2 := int32(r2 >> 33)
		if groups > 0 {
			a2 %= groups
		}
		le.PutUint32(t[offA1:], math.Float32bits(float32(r1>>20%6400)/64))
		le.PutUint32(t[offA2:], uint32(a2))
		le.PutUint32(t[offA3:], uint32(r1&1023))
		le.PutUint32(t[offA4:], uint32(r1>>10&1023))
		le.PutUint32(t[offA5:], uint32(r2&0x7fffffff))
		le.PutUint32(t[offA6:], uint32(r1>>33))
	}
	return pool
}

// stamp overwrites, in place, the timestamp of every tuple of frame with
// consecutive sequence numbers from seq. An output row therefore names the
// last input tuple that contributed to it.
func stamp(frame []byte, seq int64) {
	for off := 0; off < len(frame); off += tupleSize {
		le.PutUint64(frame[off+offTS:], uint64(seq))
		seq++
	}
}

// frameOf returns the pool bytes of a stream's frame number f. A stream
// starts poolOff tuples into the pool and replays it cyclically; the pool
// length is a multiple of every frame length, so a frame never wraps.
func frameOf(pool []byte, poolOff, frameTuples int, f int64) []byte {
	t := (int64(poolOff) + f*int64(frameTuples)) % poolTuples
	return pool[t*tupleSize : (t+int64(frameTuples))*tupleSize]
}

// tickNs is the pacer's release granularity. time.Sleep cannot pace the
// 32 µs gaps between agg-slide's frames, so frames are released in groups on
// a 1 ms tick and every latency is timed from the frame's due time.
const tickNs = int64(time.Millisecond)

// schedule is the open loop's arithmetic. One step is one frame on every
// stream; step k is due at t0 + k*periodNs. It holds no clock, so it can be
// tested with made-up times.
type schedule struct {
	t0          int64
	periodNs    int64
	frameTuples int64
}

// newSchedule paces stepTuples tuples per step at rate tuples/s.
func newSchedule(t0 int64, rate float64, stepTuples, frameTuples int) schedule {
	p := int64(float64(stepTuples)/rate*1e9 + 0.5)
	if p < 1 {
		p = 1
	}
	return schedule{t0: t0, periodNs: p, frameTuples: int64(frameTuples)}
}

// due is when step k should be sent.
func (s schedule) due(step int64) int64 { return s.t0 + step*s.periodNs }

// dueSeq is the due time of the frame that carries a stream's tuple seq.
func (s schedule) dueSeq(seq int64) int64 { return s.due(seq / s.frameTuples) }

// dueBy is how many steps are due at time now.
func (s schedule) dueBy(now int64) int64 {
	if now < s.t0 {
		return 0
	}
	return (now-s.t0)/s.periodNs + 1
}

// nextTick is the first tick boundary after now.
func (s schedule) nextTick(now int64) int64 {
	if now < s.t0 {
		return s.t0
	}
	return s.t0 + ((now-s.t0)/tickNs+1)*tickNs
}

// clock is what the pacer needs from time; tests substitute a fake.
type clock interface {
	now() int64
	sleepUntil(t int64)
}

type realClock struct{}

func (realClock) now() int64 { return nowNs() }
func (realClock) sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// pace runs the open loop: on every tick it calls send for each step that
// is due and not yet sent, passing the step's due time, until steps have
// been sent. It returns the largest lateness (send start minus due time).
// send blocks while the system applies backpressure; the schedule does not
// slow down for it, so a stall shows as lateness of the steps behind it.
func pace(clk clock, s schedule, steps int64, send func(step, due int64)) (maxLate int64) {
	for next := int64(0); next < steps; {
		now := clk.now()
		n := s.dueBy(now)
		if n > steps {
			n = steps
		}
		for ; next < n; next++ {
			due := s.due(next)
			if late := clk.now() - due; late > maxLate {
				maxLate = late
			}
			send(next, due)
		}
		if next < steps {
			clk.sleepUntil(s.nextTick(now))
		}
	}
	return maxLate
}

// sample is one latency observation: a stream sequence number carried by an
// output row and the time the sink was called with it.
type sample struct {
	seq int64
	t   int64
}

// latSink is the OnResult callback of the timed phases. Per call it reads
// the sequence number of the first and last row (plus strided rows in
// between when perCall > 2), appends them to a preallocated array, and
// counts rows. It runs under the query's drain lock, so it needs no lock of
// its own; the generator reads the counters only after Drain.
type latSink struct {
	osz     int
	tsOff   [2]int // ts2 offset in [1] for the join, else -1
	perCall int
	samples []sample
	dropped int64 // samples that did not fit the preallocated array
	calls   int64
	rows    int64
	bytes   int64
	// done, when set, is called with the last row's sequence number and
	// the call time (traced runs: frame completion stamps).
	done func(seq, t int64)
}

func (s *latSink) seqAt(rows []byte, row int) int64 {
	r := rows[row*s.osz:]
	seq := int64(le.Uint64(r[s.tsOff[0]:]))
	if s.tsOff[1] >= 0 {
		if b := int64(le.Uint64(r[s.tsOff[1]:])); b > seq {
			seq = b
		}
	}
	return seq
}

func (s *latSink) onResult(rows []byte) {
	t := nowNs()
	n := len(rows) / s.osz
	s.calls++
	s.rows += int64(n)
	s.bytes += int64(len(rows))
	k := s.perCall
	if k > n {
		k = n
	}
	if len(s.samples)+k > cap(s.samples) {
		s.dropped += int64(k)
	} else {
		for i := 0; i < k; i++ {
			s.samples = append(s.samples, sample{s.seqAt(rows, i*(n-1)/max(k-1, 1)), t})
		}
	}
	if s.done != nil {
		s.done(s.seqAt(rows, n-1), t)
	}
}
