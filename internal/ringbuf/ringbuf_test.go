package ringbuf

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []int{0, -8, 3, 100} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%d): expected error", c)
		}
	}
	b, err := New(16)
	if err != nil || b.Capacity() != 16 {
		t.Fatalf("New(16) = %v, %v", b, err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

// put appends p the way a writer without a wake signal must: TryPut,
// yielding until a concurrent releaser has made room.
func put(b *Buffer, p []byte) int64 {
	for {
		if off, ok := b.TryPut(p); ok {
			return off
		}
		runtime.Gosched()
	}
}

func TestPutSliceRelease(t *testing.T) {
	b := MustNew(16)
	off := put(b, []byte("hello"))
	if off != 0 {
		t.Fatalf("first Put offset = %d", off)
	}
	if b.Size() != 5 || b.Free() != 11 {
		t.Fatalf("Size=%d Free=%d", b.Size(), b.Free())
	}
	first, second := b.Slice(0, 5)
	if string(first) != "hello" || second != nil {
		t.Fatalf("Slice = %q, %q", first, second)
	}
	b.Release(5)
	if b.Start() != 5 || b.Size() != 0 {
		t.Fatalf("after Release Start=%d Size=%d", b.Start(), b.Size())
	}
}

func TestWrapAround(t *testing.T) {
	b := MustNew(8)
	put(b, []byte("abcdef")) // offsets 0..6
	b.Release(6)
	off := put(b, []byte("wxyz")) // offsets 6..10, wraps at 8
	if off != 6 {
		t.Fatalf("offset = %d, want 6", off)
	}
	first, second := b.Slice(6, 10)
	if string(first) != "wx" || string(second) != "yz" {
		t.Fatalf("Slice = %q, %q", first, second)
	}
	if _, ok := b.Contiguous(6, 10); ok {
		t.Error("Contiguous reported wrapping region as contiguous")
	}
	got := b.CopyTo(nil, 6, 10)
	if string(got) != "wxyz" {
		t.Fatalf("CopyTo = %q", got)
	}
}

func TestContiguousFastPath(t *testing.T) {
	b := MustNew(8)
	put(b, []byte("abcd"))
	p, ok := b.Contiguous(1, 3)
	if !ok || string(p) != "bc" {
		t.Fatalf("Contiguous = %q, %v", p, ok)
	}
}

func TestTryPutFullBuffer(t *testing.T) {
	b := MustNew(8)
	if _, ok := b.TryPut(make([]byte, 8)); !ok {
		t.Fatal("TryPut exact capacity failed")
	}
	if _, ok := b.TryPut([]byte{1}); ok {
		t.Fatal("TryPut into full buffer succeeded")
	}
	b.Release(4)
	if _, ok := b.TryPut([]byte{1, 2, 3, 4}); !ok {
		t.Fatal("TryPut after Release failed")
	}
}

func TestTryPutTooLarge(t *testing.T) {
	b := MustNew(8)
	if _, ok := b.TryPut(make([]byte, 9)); ok {
		t.Fatal("TryPut larger than capacity succeeded")
	}
	if b.End() != 0 {
		t.Fatalf("rejected TryPut moved end to %d", b.End())
	}
}

func TestReleaseBackwardsNoop(t *testing.T) {
	b := MustNew(8)
	put(b, []byte("abcd"))
	b.Release(3)
	b.Release(1) // backwards: no-op
	if b.Start() != 3 {
		t.Fatalf("Start = %d, want 3", b.Start())
	}
}

func TestReleasePastEndPanics(t *testing.T) {
	b := MustNew(8)
	put(b, []byte("ab"))
	defer func() {
		if recover() == nil {
			t.Fatal("Release past end did not panic")
		}
	}()
	b.Release(3)
}

func TestSliceValidation(t *testing.T) {
	b := MustNew(8)
	put(b, []byte("abcd"))
	b.Release(2)
	for _, c := range [][2]int64{{0, 1}, {3, 5}, {3, 2}} {
		func() {
			defer func() { recover() }()
			b.Slice(c[0], c[1])
			t.Errorf("Slice(%d,%d) did not panic", c[0], c[1])
		}()
	}
	if f, s := b.Slice(3, 3); f != nil || s != nil {
		t.Error("empty Slice not nil")
	}
}

// TestFIFOProperty checks the core invariant: bytes come out in the order
// and with the values they went in, across arbitrary chunkings.
func TestFIFOProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		b := MustNew(64)
		var want, got []byte
		read := int64(0)
		for _, c := range chunks {
			if len(c) > 32 {
				c = c[:32]
			}
			for _, chunk := range [][]byte{c} {
				// Drain whenever the chunk wouldn't fit.
				for int64(len(chunk)) > b.Free() {
					end := b.End()
					got = b.CopyTo(got, read, end)
					read = end
					b.Release(end)
				}
				put(b, chunk)
				want = append(want, chunk...)
			}
		}
		got = b.CopyTo(got, read, b.End())
		return bytes.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProducerConsumer exercises the single-writer/releaser
// protocol under the race detector: one goroutine writes a known pattern,
// another reads and releases, and the consumed stream must match.
func TestConcurrentProducerConsumer(t *testing.T) {
	const total = 1 << 16
	b := MustNew(1 << 10)
	src := make([]byte, total)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(src)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sent := 0; sent < total; {
			n := 1 + rnd.Intn(200)
			if sent+n > total {
				n = total - sent
			}
			put(b, src[sent:sent+n])
			sent += n
		}
	}()

	var got []byte
	read := int64(0)
	for int(read) < total {
		end := b.End()
		if end == read {
			runtime.Gosched()
			continue
		}
		got = b.CopyTo(got, read, end)
		b.Release(end)
		read = end
	}
	wg.Wait()
	if !bytes.Equal(src, got) {
		t.Fatal("concurrent stream corrupted")
	}
}

func BenchmarkPutRelease(b *testing.B) {
	buf := MustNew(1 << 20)
	chunk := make([]byte, 4096)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := put(buf, chunk)
		buf.Release(off + int64(len(chunk)))
	}
}
