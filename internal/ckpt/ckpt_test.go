package ckpt

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"saber/internal/exec"
)

// sampleSnapshot exercises every payload shape: scalar aggregation
// partials, a grouped partial with a hash table, join byte payloads, and
// multiple queries/inputs.
func sampleSnapshot(epoch uint64) *Snapshot {
	ht := exec.NewHashTable(8, 2, 4)
	for _, k := range []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"} {
		s := ht.Upsert([]byte(k), nil)
		s.AddCount(int64(len(k)))
		s.ObserveTS(int64(epoch) * 100)
		s.SetVal(0, 1.5*float64(epoch))
		s.SetVal(1, -2.25)
	}
	return &Snapshot{
		Epoch: epoch,
		Phi:   1 << 20,
		Queries: []QuerySnap{
			{
				Name:             "stress-0",
				Barrier:          int64(epoch) * 17,
				CommittedBytes:   int64(epoch) * 4096,
				CommittedTuples:  int64(epoch) * 128,
				RateCPU:          1234.5,
				RateGPU:          987.25,
				OfferedBytes:     int64(epoch) * 5000,
				InBytes:          int64(epoch) * 4600,
				ShedTuples:       int64(epoch) * 13,
				ShedAdmitTuples:  int64(epoch) * 9,
				ShedOldestTuples: int64(epoch) * 4,
				Ins: []InputSnap{
					{FreeTo: int64(epoch) * 32, PrevTS: int64(epoch) - 1},
					{FreeTo: 0, PrevTS: math.MinInt64},
				},
				Pending: []exec.WindowPartial{
					{Window: 7, OpenedHere: true, Count: 42, Vals: []float64{1, 2, 3}, MaxTS: 99},
					{Window: 8, Table: ht, MaxTS: math.MinInt64},
					{Window: 9, Data: []byte("joined"), AData: []byte("left"), BData: []byte("right"),
						ClosedSides: [2]bool{true, false}},
				},
			},
			{Name: "stress-1", Barrier: 3, CommittedBytes: 100, CommittedTuples: 5,
				Ins: []InputSnap{{FreeTo: 160, PrevTS: 4}}},
		},
	}
}

func assertSnapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Epoch != want.Epoch || got.Phi != want.Phi || len(got.Queries) != len(want.Queries) {
		t.Fatalf("snapshot header: got epoch=%d phi=%d queries=%d, want epoch=%d phi=%d queries=%d",
			got.Epoch, got.Phi, len(got.Queries), want.Epoch, want.Phi, len(want.Queries))
	}
	for i := range want.Queries {
		g, w := got.Queries[i], want.Queries[i]
		if g.Name != w.Name || g.Barrier != w.Barrier || g.CommittedBytes != w.CommittedBytes ||
			g.CommittedTuples != w.CommittedTuples || g.RateCPU != w.RateCPU || g.RateGPU != w.RateGPU {
			t.Fatalf("query %d header mismatch: got %+v", i, g)
		}
		if g.OfferedBytes != w.OfferedBytes || g.InBytes != w.InBytes || g.ShedTuples != w.ShedTuples ||
			g.ShedAdmitTuples != w.ShedAdmitTuples || g.ShedOldestTuples != w.ShedOldestTuples {
			t.Fatalf("query %d overload ledger mismatch: got %+v", i, g)
		}
		if !reflect.DeepEqual(g.Ins, w.Ins) {
			t.Fatalf("query %d inputs: got %+v, want %+v", i, g.Ins, w.Ins)
		}
		if len(g.Pending) != len(w.Pending) {
			t.Fatalf("query %d: %d pending windows, want %d", i, len(g.Pending), len(w.Pending))
		}
		for j := range w.Pending {
			gp, wp := g.Pending[j], w.Pending[j]
			gt, wt := gp.Table, wp.Table
			gp.Table, wp.Table = nil, nil
			// Encode normalises empty slices to nil.
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("query %d window %d: got %+v, want %+v", i, j, gp, wp)
			}
			if (gt == nil) != (wt == nil) {
				t.Fatalf("query %d window %d: table presence mismatch", i, j)
			}
			if wt != nil {
				assertTablesEqual(t, gt, wt)
			}
		}
	}
}

func assertTablesEqual(t *testing.T, got, want *exec.HashTable) {
	t.Helper()
	if got.Len() != want.Len() || got.KeyLen() != want.KeyLen() || got.NumAggs() != want.NumAggs() {
		t.Fatalf("table shape: got len=%d keyLen=%d aggs=%d, want len=%d keyLen=%d aggs=%d",
			got.Len(), got.KeyLen(), got.NumAggs(), want.Len(), want.KeyLen(), want.NumAggs())
	}
	want.Range(func(ws exec.Slot) {
		gs, ok := got.Lookup(ws.Key())
		if !ok {
			t.Fatalf("group %q missing after round trip", ws.Key())
		}
		if gs.Count() != ws.Count() || gs.MaxTS() != ws.MaxTS() {
			t.Fatalf("group %q: count/maxTS %d/%d, want %d/%d",
				ws.Key(), gs.Count(), gs.MaxTS(), ws.Count(), ws.MaxTS())
		}
		for a := 0; a < want.NumAggs(); a++ {
			if gs.Val(a) != ws.Val(a) {
				t.Fatalf("group %q agg %d: %v, want %v", ws.Key(), a, gs.Val(a), ws.Val(a))
			}
		}
	})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot(3)
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertSnapshotsEqual(t, got, want)
}

// TestDecodeV1Compat hand-builds a version-1 frame (no overload ledger
// fields) and checks it still decodes, with the v2 fields zero — recovery
// must be able to fall back to a pre-upgrade epoch file.
func TestDecodeV1Compat(t *testing.T) {
	var p payload
	p.u64(3)    // epoch
	p.u64(4096) // phi
	p.u32(1)    // queries
	p.str("q0")
	p.u64(7)   // barrier
	p.u64(100) // committed bytes
	p.u64(5)   // committed tuples
	p.f64(1.5) // rate cpu
	p.f64(2.5) // rate gpu
	p.u32(1)   // inputs
	p.u64(160) // free-to
	p.u64(42)  // prev ts
	p.u32(0)   // pending
	frame := append([]byte(nil), magic...)
	frame = le.AppendUint32(frame, 1)
	frame = le.AppendUint64(frame, uint64(len(p.b)))
	frame = append(frame, p.b...)
	frame = le.AppendUint32(frame, crc32.ChecksumIEEE(p.b))

	s, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode v1: %v", err)
	}
	q := s.Queries[0]
	if s.Epoch != 3 || q.Name != "q0" || q.Barrier != 7 || q.CommittedBytes != 100 ||
		len(q.Ins) != 1 || q.Ins[0].FreeTo != 160 {
		t.Fatalf("v1 fields mangled: %+v", s)
	}
	if q.OfferedBytes != 0 || q.InBytes != 0 || q.ShedTuples != 0 ||
		q.ShedAdmitTuples != 0 || q.ShedOldestTuples != 0 {
		t.Fatalf("v1 decode should leave the overload ledger zero: %+v", q)
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		if _, _, err := st.Save(sampleSnapshot(e)); err != nil {
			t.Fatalf("Save epoch %d: %v", e, err)
		}
	}
	s, info, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if s.Epoch != 5 || info.Epoch != 5 || info.Skipped != 0 {
		t.Fatalf("loaded epoch %d (skipped %d), want 5 (0)", s.Epoch, info.Skipped)
	}
	assertSnapshotsEqual(t, s, sampleSnapshot(5))

	// Retention: only the newest 3 epochs remain on disk.
	epochs, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[0].Epoch != 5 || epochs[2].Epoch != 3 {
		t.Fatalf("retained %+v, want epochs 5,4,3", epochs)
	}
}

func TestLoadLatestNoCheckpoint(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
}

// TestLoadLatestFallsBackPastCorruption is the torn/corrupt recovery
// contract: a damaged newest epoch must never block recovery or panic —
// LoadLatest reports it skipped and settles on the previous valid epoch.
func TestLoadLatestFallsBackPastCorruption(t *testing.T) {
	damage := map[string]func(path string) error{
		"bit-flip": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)/2] ^= 0x40
			return os.WriteFile(path, b, 0o644)
		},
		"truncated": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/3], 0o644)
		},
		"empty": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"bad-magic": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			copy(b, "NOTSABER")
			return os.WriteFile(path, b, 0o644)
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(1); e <= 3; e++ {
				if _, _, err := st.Save(sampleSnapshot(e)); err != nil {
					t.Fatal(err)
				}
			}
			if err := corrupt(filepath.Join(dir, epochFile(3))); err != nil {
				t.Fatal(err)
			}
			s, info, err := LoadLatest(dir)
			if err != nil {
				t.Fatalf("LoadLatest: %v", err)
			}
			if s.Epoch != 2 || info.Skipped != 1 {
				t.Fatalf("loaded epoch %d (skipped %d), want epoch 2 with 1 skip", s.Epoch, info.Skipped)
			}
			assertSnapshotsEqual(t, s, sampleSnapshot(2))
		})
	}
}

// TestDecodeRejectsHostileCounts guards the allocation bounds: a frame
// with a valid CRC but an absurd element count must fail cleanly.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Build a valid frame, then rewrite the query count to 2^31 and
	// re-frame with a fresh CRC so only the count check can reject it.
	s := &Snapshot{Epoch: 1}
	b := Encode(s)
	payload := append([]byte(nil), b[headerSize:len(b)-trailerSize]...)
	le.PutUint32(payload[16:], 1<<31-1)
	hostile := append([]byte(nil), b[:headerSize]...)
	hostile = append(hostile, payload...)
	hostile = le.AppendUint32(hostile, crc32.ChecksumIEEE(payload))
	if _, err := Decode(hostile); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: err = %v, want ErrCorrupt", err)
	}
}
