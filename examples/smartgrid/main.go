// Smart grid anomaly detection: the paper's SG pipeline (Appendix A.2).
// SG1 derives the sliding global load average and SG2 the per-plug local
// averages; their output streams feed SG3, the outlier join, whose output
// feeds the final per-house outlier count — demonstrating how derived
// streams chain through engines.
//
//	go run ./examples/smartgrid
package main

import (
	"fmt"
	"sync"
	"time"

	"saber"
	"saber/internal/workload"
)

func main() {
	// Stage 1: SG1 + SG2 over the raw meter readings.
	stage1 := saber.New(saber.Config{CPUWorkers: 4, TaskSize: 128 << 10, DisablePad: true})
	const windowScale = 60 // shrink the paper's 3600-unit windows for the demo
	sg1, err := stage1.RegisterQuery(workload.SG1(windowScale))
	if err != nil {
		panic(err)
	}
	sg2, err := stage1.RegisterQuery(workload.SG2(windowScale))
	if err != nil {
		panic(err)
	}

	var mu sync.Mutex
	var globalStream, localStream []byte
	sg1.OnResult(func(rows []byte) {
		mu.Lock()
		globalStream = append(globalStream, rows...)
		mu.Unlock()
	})
	sg2.OnResult(func(rows []byte) {
		mu.Lock()
		localStream = append(localStream, rows...)
		mu.Unlock()
	})
	if err := stage1.Start(); err != nil {
		panic(err)
	}

	gen := workload.NewSGGen(3)
	start := time.Now()
	var buf []byte
	for i := 0; i < 32; i++ {
		buf = gen.Next(buf[:0], 8192)
		sg1.Insert(buf)
		sg2.Insert(buf)
	}
	stage1.Drain()
	stage1.Close()

	// Stage 2: the SG3 outlier join over the derived streams.
	stage2 := saber.New(saber.Config{CPUWorkers: 4, TaskSize: 64 << 10, DisablePad: true})
	sg3, err := stage2.RegisterQuery(workload.SG3Join())
	if err != nil {
		panic(err)
	}
	out := sg3.OutputSchema()
	outliersByHouse := map[int32]int{}
	sg3.OnResult(func(rows []byte) {
		mu.Lock()
		defer mu.Unlock()
		osz := out.TupleSize()
		houseIdx := out.IndexOf("house")
		for i := 0; i+osz <= len(rows); i += osz {
			outliersByHouse[out.ReadInt32(rows[i:], houseIdx)]++
		}
	})
	if err := stage2.Start(); err != nil {
		panic(err)
	}
	// Feed the two derived streams interleaved and proportionally so the
	// join dispatcher's batches stay time-aligned (the local stream has
	// one row per group per window, the global stream one row per window).
	ltz, gtz := workload.SGLocalSchema.TupleSize(), workload.SGGlobalSchema.TupleSize()
	localStream = localStream[:len(localStream)/ltz*ltz]
	globalStream = globalStream[:len(globalStream)/gtz*gtz]
	const steps = 64
	for s := 0; s < steps; s++ {
		lcut := func(x int) int { return (len(localStream) / ltz) * x / steps * ltz }
		gcut := func(x int) int { return (len(globalStream) / gtz) * x / steps * gtz }
		sg3.InsertInto(0, localStream[lcut(s):lcut(s+1)])
		sg3.InsertInto(1, globalStream[gcut(s):gcut(s+1)])
	}
	stage2.Drain()
	stage2.Close()

	fmt.Printf("derived %d local and %d global averages in %v\n",
		len(localStream)/workload.SGLocalSchema.TupleSize(),
		len(globalStream)/workload.SGGlobalSchema.TupleSize(),
		time.Since(start).Round(time.Millisecond))
	top, topN := int32(-1), 0
	total := 0
	for h, n := range outliersByHouse {
		total += n
		if n > topN {
			top, topN = h, n
		}
	}
	fmt.Printf("outlier readings (local avg above global): %d across %d houses\n", total, len(outliersByHouse))
	if topN > 0 {
		fmt.Printf("most anomalous house: %d with %d outliers\n", top, topN)
	}
}
