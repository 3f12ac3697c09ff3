package ringbuf

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// pattern is the expected byte at absolute stream offset off: readers can
// verify any region of the stream from its offsets alone, so a torn read,
// a wrap-around addressing bug or a premature release shows up as a
// content mismatch rather than a silent corruption.
func pattern(off int64) byte { return byte(off*31 + 7) }

func fillPattern(dst []byte, off int64) {
	for i := range dst {
		dst[i] = pattern(off + int64(i))
	}
}

func checkPattern(t *testing.T, got []byte, off int64, how string) {
	t.Helper()
	for i, b := range got {
		if want := pattern(off + int64(i)); b != want {
			t.Errorf("%s: byte at offset %d = %#x, want %#x", how, off+int64(i), b, want)
			return
		}
	}
}

// TestConcurrentWrapReadRelease drives the buffer through the engine's
// full single-writer/multi-reader/free-pointer protocol under -race,
// with a capacity small enough that the stream wraps the backing array
// hundreds of times:
//
//   - one writer Puts variable-size records (blocking on backpressure),
//   - racing readers verify each record's content via Slice, Contiguous
//     or CopyTo while later records are still being written,
//   - a releaser advances the free pointer only over fully read records
//     (out-of-order completions wait, as the result stage's reordering
//     window does), and
//   - a poller runs CheckInvariants throughout.
//
// At the end every byte must have been read exactly once with correct
// content, the buffer must be empty, and the wrap counter must prove the
// run exercised wrap-around addressing.
func TestConcurrentWrapReadRelease(t *testing.T) {
	const (
		capacity = 1 << 12
		records  = 4000
		readers  = 4
	)
	b := MustNew(capacity)
	b.SetInvariantName("ringbuf[test]")

	type region struct{ from, to int64 }
	regions := make(chan region, 64)
	done := make(chan region, 64)

	// Poller: invariants must hold at every instant of the run.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			if err := b.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Releaser: advance the free pointer over the contiguous prefix of
	// completed records, mirroring the result stage's free-pointer use.
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		pending := make(map[int64]int64)
		var frontier int64
		for r := range done {
			pending[r.from] = r.to
			for to, ok := pending[frontier]; ok; to, ok = pending[frontier] {
				delete(pending, frontier)
				b.Release(to)
				frontier = to
			}
		}
		if len(pending) != 0 {
			t.Errorf("%d records never became releasable", len(pending))
		}
	}()

	// Readers: verify each record through a rotating access method.
	var readWG sync.WaitGroup
	for w := 0; w < readers; w++ {
		readWG.Add(1)
		go func(w int) {
			defer readWG.Done()
			var scratch []byte
			for r := range regions {
				n := r.to - r.from
				switch (r.from + int64(w)) % 3 {
				case 0:
					first, second := b.Slice(r.from, r.to)
					checkPattern(t, first, r.from, "Slice first")
					checkPattern(t, second, r.from+int64(len(first)), "Slice second")
					if int64(len(first)+len(second)) != n {
						t.Errorf("Slice returned %d bytes, want %d", len(first)+len(second), n)
					}
				case 1:
					if p, ok := b.Contiguous(r.from, r.to); ok {
						checkPattern(t, p, r.from, "Contiguous")
					} else {
						scratch = b.CopyTo(scratch[:0], r.from, r.to)
						checkPattern(t, scratch, r.from, "CopyTo (wrapped)")
					}
				default:
					scratch = b.CopyTo(scratch[:0], r.from, r.to)
					checkPattern(t, scratch, r.from, "CopyTo")
				}
				done <- region{r.from, r.to}
			}
		}(w)
	}

	// Writer: seeded variable-size records, some larger than half the
	// buffer's remaining space so the writer waits for releases.
	rnd := rand.New(rand.NewSource(1))
	var total int64
	buf := make([]byte, 512)
	for i := 0; i < records; i++ {
		n := 1 + rnd.Intn(len(buf))
		rec := buf[:n]
		fillPattern(rec, total)
		off := put(b, rec)
		if off != total {
			t.Fatalf("record %d written at offset %d, want %d", i, off, total)
		}
		total += int64(n)
		regions <- region{off, total}
	}
	close(regions)
	readWG.Wait()
	close(done)
	relWG.Wait()
	close(stopPoll)
	pollWG.Wait()

	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	if b.Start() != total || b.End() != total || b.Size() != 0 {
		t.Fatalf("buffer not empty after full release: start=%d end=%d total=%d", b.Start(), b.End(), total)
	}
	if b.Wraps() == 0 {
		t.Fatal("run never wrapped the backing array; configuration too tame")
	}
	t.Logf("wrote %d bytes across %d records, %d wraps", total, records, b.Wraps())
}

// TestWrapsCounter pins the wrap counter's definition: a write that fits
// before the physical end does not count, a write that crosses it does.
func TestWrapsCounter(t *testing.T) {
	b := MustNew(8)
	put(b, []byte{1, 2, 3, 4, 5, 6})
	if b.Wraps() != 0 {
		t.Fatalf("wraps = %d before any wrap", b.Wraps())
	}
	b.Release(6)
	put(b, []byte{7, 8, 9, 10}) // crosses offset 8
	if b.Wraps() != 1 {
		t.Fatalf("wraps = %d after wrapping write", b.Wraps())
	}
	got := b.CopyTo(nil, 6, 10)
	if !bytes.Equal(got, []byte{7, 8, 9, 10}) {
		t.Fatalf("wrapped read = %v", got)
	}
}
