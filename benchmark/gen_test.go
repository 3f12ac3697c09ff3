package main

import (
	"bytes"
	"testing"
)

// fakeClock advances only when the pacer sleeps or a send takes time.
type fakeClock struct {
	t      int64
	sleeps []int64
}

func (c *fakeClock) now() int64 { return c.t }
func (c *fakeClock) sleepUntil(t int64) {
	c.sleeps = append(c.sleeps, t)
	if t > c.t {
		c.t = t
	}
}

func TestScheduleArithmetic(t *testing.T) {
	// agg-slide: one stream of 512-tuple frames at 16 Mtuple/s is a frame
	// every 32 µs.
	s := newSchedule(1000, 16e6, 512, 512)
	if s.periodNs != 32_000 {
		t.Fatalf("period %d ns, want 32000", s.periodNs)
	}
	if got := s.due(3); got != 1000+96_000 {
		t.Errorf("due(3) = %d", got)
	}
	for _, c := range []struct{ now, want int64 }{
		{999, 0}, {1000, 1}, {1000 + 31_999, 1}, {1000 + 32_000, 2}, {1000 + 1_000_000, 32},
	} {
		if got := s.dueBy(c.now); got != c.want {
			t.Errorf("dueBy(%d) = %d, want %d", c.now, got, c.want)
		}
	}
	// Tuple seq rides in frame seq/512, whatever its position inside it.
	for _, c := range []struct{ seq, frame int64 }{{0, 0}, {511, 0}, {512, 1}, {1535, 2}} {
		if got := s.dueSeq(c.seq); got != s.due(c.frame) {
			t.Errorf("dueSeq(%d) = %d, want due(%d) = %d", c.seq, got, c.frame, s.due(c.frame))
		}
	}
	if got := s.nextTick(1000 + 1); got != 1000+tickNs {
		t.Errorf("nextTick just after t0 = %d", got)
	}
	if got := s.nextTick(1000 + tickNs); got != 1000+2*tickNs {
		t.Errorf("nextTick on a boundary = %d", got)
	}
	// hybrid-mix: two streams of 2048-tuple frames at 3 Mtuple/s total.
	if p := newSchedule(0, 3e6, 4096, 2048).periodNs; p != 1_365_333 {
		t.Errorf("hybrid period %d ns", p)
	}
}

func TestPaceReleasesDueFramesOnTicks(t *testing.T) {
	clk := &fakeClock{t: 5000}
	s := newSchedule(5000, 16e6, 512, 512) // 31.25 frames per 1 ms tick
	var sentAt, dues []int64
	late := pace(clk, s, 100, func(step, due int64) {
		if step != int64(len(sentAt)) {
			t.Fatalf("step %d sent out of order", step)
		}
		sentAt = append(sentAt, clk.t)
		dues = append(dues, due)
	})
	if len(sentAt) != 100 {
		t.Fatalf("sent %d steps, want 100", len(sentAt))
	}
	for k, at := range sentAt {
		if dues[k] != s.due(int64(k)) {
			t.Errorf("step %d: due %d, want %d", k, dues[k], s.due(int64(k)))
		}
		// A step is sent at the first tick at or after its due time.
		tick := (dues[k] - s.t0 + tickNs - 1) / tickNs * tickNs
		if at != s.t0+tick {
			t.Errorf("step %d due at +%d sent at +%d, want +%d", k, dues[k]-s.t0, at-s.t0, tick)
		}
	}
	// The lateness a tick causes stays below one tick.
	var want int64
	for k := range sentAt {
		if l := sentAt[k] - dues[k]; l > want {
			want = l
		}
	}
	if late != want || late >= tickNs || late < tickNs-2*s.periodNs {
		t.Errorf("max lateness %d, want %d, just under one tick", late, want)
	}
	for i, at := range clk.sleeps {
		if at != s.t0+int64(i+1)*tickNs {
			t.Errorf("sleep %d until +%d, want tick %d", i, at-s.t0, i+1)
		}
	}
}

func TestPaceCountsAStallAsLateness(t *testing.T) {
	clk := &fakeClock{}
	s := newSchedule(0, 1e6, 1000, 1000) // one step per tick
	stall := 5 * tickNs
	var lateOf []int64
	late := pace(clk, s, 10, func(step, due int64) {
		lateOf = append(lateOf, clk.t-due)
		if step == 2 {
			clk.t += stall // backpressure: this Send blocks for five ticks
		}
	})
	// Steps 3..7 fell due during the stall and go out right after it; the
	// schedule did not slow down for them.
	want := []int64{0, 0, 0, 4 * tickNs, 3 * tickNs, 2 * tickNs, tickNs, 0, 0, 0}
	for k := range want {
		if lateOf[k] != want[k] {
			t.Errorf("step %d late by %d, want %d", k, lateOf[k], want[k])
		}
	}
	if late != 4*tickNs {
		t.Errorf("max lateness %d, want %d", late, 4*tickNs)
	}
}

func TestStampAndFrameOf(t *testing.T) {
	pool := genPool(7, 64)
	if !bytes.Equal(pool, genPool(7, 64)) {
		t.Fatal("the same seed gave different pools")
	}
	if bytes.Equal(pool, genPool(8, 64)) {
		t.Fatal("different seeds gave the same pool")
	}
	const ft = 512
	frames := int64(poolTuples / ft)
	f := frameOf(pool, 0, ft, frames+3) // second cycle
	if &f[0] != &frameOf(pool, 0, ft, 3)[0] {
		t.Error("frame numbers do not wrap around the pool")
	}
	before := append([]byte(nil), f...)
	stamp(f, 9000)
	for i := 0; i < ft; i++ {
		tup := f[i*tupleSize : (i+1)*tupleSize]
		if got := int64(le.Uint64(tup[offTS:])); got != 9000+int64(i) {
			t.Fatalf("tuple %d stamped %d", i, got)
		}
		if !bytes.Equal(tup[offA1:], before[i*tupleSize+offA1:(i+1)*tupleSize]) {
			t.Fatalf("stamping tuple %d touched more than its timestamp", i)
		}
	}
	in := input{pool: pool}
	for i := int64(0); i < 4096; i++ {
		if g := in.a2(i); g < 0 || g >= 64 {
			t.Fatalf("a2 = %d outside the 64 groups", g)
		}
		if a := in.a3(i); a < 0 || a >= 1024 {
			t.Fatalf("a3 = %d outside [0, 1024)", a)
		}
		if v := in.a1(i); v < 0 || v >= 100 || v*64 != float32(int(v*64)) {
			t.Fatalf("a1 = %v is not a multiple of 1/64 below 100", v)
		}
	}
}

func TestLatSinkSamplesFirstAndLastRow(t *testing.T) {
	s := &latSink{osz: 12, tsOff: [2]int{0, -1}, perCall: 2, samples: make([]sample, 0, 4)}
	rows := make([]byte, 5*12)
	for i := 0; i < 5; i++ {
		le.PutUint64(rows[i*12:], uint64(100+i))
	}
	s.onResult(rows)
	if len(s.samples) != 2 || s.samples[0].seq != 100 || s.samples[1].seq != 104 {
		t.Fatalf("samples %+v, want the first and last row's sequence numbers", s.samples)
	}
	if s.rows != 5 || s.calls != 1 {
		t.Fatalf("rows %d calls %d", s.rows, s.calls)
	}
	s.onResult(rows)
	s.onResult(rows) // the array is full: counted, not grown
	if len(s.samples) != 4 || s.dropped != 2 {
		t.Fatalf("%d samples kept, %d dropped", len(s.samples), s.dropped)
	}
}
