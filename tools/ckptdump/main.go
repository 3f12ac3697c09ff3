// Command ckptdump prints a human-readable summary of a checkpoint
// directory: every epoch file newest-first with its per-query barrier,
// committed output frontier, input cursors and pending-window count. Torn or corrupt files are flagged instead of
// aborting the dump — exactly the files recovery would fall back past.
//
// Usage:
//
//	ckptdump <checkpoint-dir>
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"saber/internal/ckpt"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ckptdump <checkpoint-dir>")
		os.Exit(2)
	}
	dir := os.Args[1]

	files, err := ckpt.Scan(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckptdump: %v\n", err)
		os.Exit(1)
	}
	if len(files) == 0 {
		fmt.Println("no epoch files")
		return
	}
	corrupt := 0
	for _, f := range files {
		snap, err := ckpt.Load(f.Path)
		if err != nil {
			corrupt++
			fmt.Printf("\n%s: CORRUPT (%v)\n", filepath.Base(f.Path), err)
			continue
		}
		st, _ := os.Stat(f.Path)
		size := int64(0)
		if st != nil {
			size = st.Size()
		}
		fmt.Printf("\n%s: epoch %d, phi %d bytes, %d queries, %d bytes on disk\n",
			filepath.Base(f.Path), snap.Epoch, snap.Phi, len(snap.Queries), size)
		for _, q := range snap.Queries {
			fmt.Printf("  query %q: barrier task %d, committed %d bytes / %d tuples, %d pending windows\n",
				q.Name, q.Barrier, q.CommittedBytes, q.CommittedTuples, len(q.Pending))
			for i, in := range q.Ins {
				fmt.Printf("    input %d: replay from byte %d (prevTS %d)\n", i, in.FreeTo, in.PrevTS)
			}
			if q.RateCPU > 0 || q.RateGPU > 0 {
				fmt.Printf("    learned rates: cpu %.0f B/s, gpu %.0f B/s\n", q.RateCPU, q.RateGPU)
			}
		}
	}
	if corrupt > 0 {
		fmt.Printf("\n%d of %d epoch files corrupt — recovery falls back past them\n", corrupt, len(files))
	}
}
