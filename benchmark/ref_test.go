package main

import (
	"math"
	"testing"

	"saber/internal/query"
	"saber/internal/window"
	"saber/internal/workload"
)

// handPool is a full-size pool whose first tuples carry the given a1, a2 and
// a3 values; the reference addresses tuples modulo the pool length.
func handPool(a1 []float32, a2, a3 []int32) []byte {
	pool := make([]byte, poolBytes)
	for i := range a1 {
		t := pool[i*tupleSize:]
		le.PutUint32(t[offA1:], math.Float32bits(a1[i]))
		le.PutUint32(t[offA2:], uint32(a2[i]))
		le.PutUint32(t[offA3:], uint32(a3[i]))
	}
	return pool
}

func drainReference(r *reference) (units [][]byte) {
	for u := r.next(); u != nil; u = r.next() {
		units = append(units, append([]byte(nil), u...))
	}
	return units
}

func TestReferenceScalarAggregateWindows(t *testing.T) {
	// a1 = 0..6, ω(4, 2): windows [0,4) [2,6) [4,8) [6,10); the stream ends
	// after 7 tuples, so the last two are cut short and still emitted.
	pool := handPool([]float32{0, 1, 2, 3, 4, 5, 6}, make([]int32, 7), make([]int32, 7))
	q := querySpec{shape: shapeAgg, size: 4, slide: 2}
	out := workload.Agg(query.Avg, window.NewCount(4, 2)).OutputSchema()
	units := drainReference(newReference(q, out, [2]input{{pool: pool}}, 7))
	want := []struct {
		ts  int64
		avg float32
	}{{3, 1.5}, {5, 3.5}, {6, 5}, {6, 6}}
	if len(units) != len(want) {
		t.Fatalf("%d windows, want %d", len(units), len(want))
	}
	for k, w := range want {
		if ts := out.Timestamp(units[k]); ts != w.ts {
			t.Errorf("window %d: timestamp %d, want %d", k, ts, w.ts)
		}
		if avg := out.ReadFloat32(units[k], 1); avg != w.avg {
			t.Errorf("window %d: avg %v, want %v", k, avg, w.avg)
		}
	}
}

func TestReferenceGroupedAggregate(t *testing.T) {
	// One tumbling window of four tuples, groups 7 and 9.
	pool := handPool([]float32{1, 2, 4, 8}, []int32{7, 9, 7, 7}, make([]int32, 4))
	q := querySpec{shape: shapeAgg, size: 4, slide: 4, grouped: true}
	out := workload.GroupBy([]query.AggFunc{query.Count, query.Sum}, 64, window.NewCount(4, 4)).OutputSchema()
	units := drainReference(newReference(q, out, [2]input{{pool: pool}}, 4))
	if len(units) != 1 || len(units[0]) != 2*out.TupleSize() {
		t.Fatalf("units %v, want one window of two rows", units)
	}
	got := map[int32][3]float64{}
	for off := 0; off < len(units[0]); off += out.TupleSize() {
		row := units[0][off:]
		got[out.ReadInt32(row, 1)] = [3]float64{float64(out.Timestamp(row)), float64(out.ReadInt64(row, 2)), out.ReadFloat(row, 3)}
	}
	// Each row carries its group's last contributing sequence number.
	if got[7] != [3]float64{3, 3, 13} || got[9] != [3]float64{1, 1, 2} {
		t.Fatalf("groups %v", got)
	}
}

func TestReferenceBandJoin(t *testing.T) {
	// Input B replays the pool half a cycle away from input A.
	a3 := make([]int32, poolTuples/2+2)
	a3[0], a3[1] = 1, 5
	a3[poolTuples/2], a3[poolTuples/2+1] = 3, 6
	pool := handPool(make([]float32, len(a3)), make([]int32, len(a3)), a3)
	q := bandJoinQuery()
	q.size, q.slide = 2, 2
	out := q.build().OutputSchema()
	in := [2]input{{pool: pool}, {pool: pool, off: poolTuples / 2}}
	units := drainReference(newReference(q, out, in, 2))
	if len(units) != 1 {
		t.Fatalf("%d windows, want 1", len(units))
	}
	// 1<3<9, 1<6<9 and 5<6<13 match; 5<3 does not. Rows are (A.ts, A.a3, B.ts).
	type row struct {
		ts  int64
		a3  int32
		ts2 int64
	}
	var got []row
	for off := 0; off < len(units[0]); off += out.TupleSize() {
		r := units[0][off:]
		got = append(got, row{out.Timestamp(r), out.ReadInt32(r, 1), out.ReadInt64(r, 2)})
	}
	want := []row{{0, 1, 0}, {0, 1, 1}, {1, 5, 1}}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows %v, want %v", got, want)
		}
	}
}

// TestRowCounterAgreesWithReference checks the closed forms the timed reps
// rely on against the evaluator, below and beyond one pool cycle.
func TestRowCounterAgreesWithReference(t *testing.T) {
	pool := genPool(3, 64)
	in := [2]input{{pool: pool}, {pool: pool, off: poolTuples / 2}}
	for _, q := range []querySpec{selectQuery(), projQuery(), aggQuery(), groupByQuery(), bandJoinQuery()} {
		out := q.build().OutputSchema()
		c := newRowCounter(q, in)
		for _, n := range []int64{512, 5 * 512, poolTuples + 3*512} {
			if q.shape == shapeJoin && n > poolTuples {
				n = poolTuples/8 + 512 // the nested loop over a whole cycle runs in the smoke test
			}
			rows := int64(0)
			r := newReference(q, out, in, n)
			for u := r.next(); u != nil; u = r.next() {
				rows += int64(len(u) / out.TupleSize())
			}
			if got := c.rows(n); got != rows {
				t.Errorf("%s over %d tuples: counter says %d rows, reference made %d", q.build().Name, n, got, rows)
			}
		}
	}
}

// TestMutationsAreCaught proves the checks can fail: a flipped output byte
// and a withheld frame must each fail the rep that a clean run passes.
func TestMutationsAreCaught(t *testing.T) {
	b := newBench(findWorkload("select"), 1)
	base := repOpts{phase: phaseVerify}
	if r := b.run(base); r.err != nil {
		t.Fatalf("clean run failed: %v", r.err)
	}
	flipped := base
	flipped.flipByte = 100_003
	if r := b.run(flipped); r.err == nil {
		t.Error("a flipped output byte went unnoticed")
	} else {
		t.Log("flipped byte:", r.err)
	}
	dropped := base
	dropped.dropFrame = 7
	if r := b.run(dropped); r.err == nil {
		t.Error("a dropped frame went unnoticed")
	} else {
		t.Log("dropped frame:", r.err)
	}
}
