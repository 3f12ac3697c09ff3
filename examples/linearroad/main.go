// Linear Road: the paper's LRB pipeline (Appendix A.3). Stage 1 runs
// LRB1, deriving highway segments from raw position reports; the derived
// SegSpeedStr then feeds LRB3 (congested segments via HAVING) and LRB4
// (vehicle counts per segment) in a second engine.
//
//	go run ./examples/linearroad
package main

import (
	"fmt"
	"sync"
	"time"

	"saber"
	"saber/internal/workload"
)

func main() {
	// Stage 1: LRB1 over the raw position reports.
	stage1 := saber.New(saber.Config{CPUWorkers: 4, TaskSize: 256 << 10, DisablePad: true})
	lrb1, err := stage1.RegisterQuery(workload.LRB1())
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex
	var segStream []byte
	lrb1.OnResult(func(rows []byte) {
		mu.Lock()
		segStream = append(segStream, rows...)
		mu.Unlock()
	})
	if err := stage1.Start(); err != nil {
		panic(err)
	}

	gen := workload.NewLRBGen(5, 400)
	start := time.Now()
	var buf []byte
	for i := 0; i < 48; i++ {
		buf = gen.Next(buf[:0], 8192)
		lrb1.Insert(buf)
	}
	stage1.Drain()
	stage1.Close()

	// Stage 2: LRB3 and LRB4 over SegSpeedStr.
	stage2 := saber.New(saber.Config{CPUWorkers: 4, TaskSize: 256 << 10, DisablePad: true})
	lrb3, err := stage2.RegisterQuery(workload.LRB3())
	if err != nil {
		panic(err)
	}
	lrb4, err := stage2.RegisterQuery(workload.LRB4())
	if err != nil {
		panic(err)
	}

	congested := map[[2]int64]bool{} // (segment, direction)
	out3 := lrb3.OutputSchema()
	segIdx, dirIdx := out3.IndexOf("segment"), out3.IndexOf("direction")
	lrb3.OnResult(func(rows []byte) {
		mu.Lock()
		defer mu.Unlock()
		osz := out3.TupleSize()
		for i := 0; i+osz <= len(rows); i += osz {
			congested[[2]int64{out3.ReadInt(rows[i:], segIdx), out3.ReadInt(rows[i:], dirIdx)}] = true
		}
	})
	if err := stage2.Start(); err != nil {
		panic(err)
	}
	lrb3.Insert(segStream)
	lrb4.Insert(segStream)
	stage2.Drain()
	stage2.Close()

	st1, st3, st4 := lrb1.Stats(), lrb3.Stats(), lrb4.Stats()
	fmt.Printf("position reports: %d → segment stream: %d tuples (pipeline in %v)\n",
		st1.BytesIn/int64(workload.LRBSchema.TupleSize()), st1.TuplesOut,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("LRB3 congested-segment window results: %d\n", st3.TuplesOut)
	mu.Lock()
	fmt.Printf("distinct congested (segment, direction) pairs: %d (simulator congests segments 20–25)\n", len(congested))
	mu.Unlock()
	fmt.Printf("LRB4 vehicle-count rows: %d\n", st4.TuplesOut)
}
