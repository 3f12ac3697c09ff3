package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Benchmark-side tracing. Every frame of a traced run gets one span tree,
// recorded from outside the engine in arrays allocated before the run:
//
//	frame            due time → sink call that completed the frame's last tuple
//	├ gen.late       due time → Send called
//	├ ingest.wire    Send called → the server handed the frame to the sink
//	├ engine.insert  Handle.InsertInto entered → returned
//	└ engine.internal InsertInto returned → completing sink call
//
// The four children tile their parent, so each one's self time is its
// duration and the frame's own self time is zero.

// streamTrace holds one stream's stamps, indexed by frame number. The
// generator writes due/send/sent, the ingest server's goroutine enter/exit,
// and the completing sink call done; they are read after Drain.
type streamTrace struct {
	due, send, sent, enter, exit, done []int64
	arrived                            int // frames the server has delivered
	completed                          int // frames a sink call has covered
	frameTuples                        int64
}

type frameTrace struct {
	streams []streamTrace
}

func newFrameTrace(nStreams int, frames, frameTuples int64) *frameTrace {
	tr := &frameTrace{streams: make([]streamTrace, nStreams)}
	for i := range tr.streams {
		all := make([]int64, 6*frames)
		s := &tr.streams[i]
		s.frameTuples = frameTuples
		s.due, s.send, s.sent = all[:frames:frames], all[frames:2*frames:2*frames], all[2*frames:3*frames:3*frames]
		s.enter, s.exit, s.done = all[3*frames:4*frames:4*frames], all[4*frames:5*frames:5*frames], all[5*frames:]
	}
	return tr
}

func (s *streamTrace) sendAt(frame, due, start, end int64) {
	s.due[frame], s.send[frame], s.sent[frame] = due, start, end
}

func (s *streamTrace) arrive(enter, exit int64) {
	if s.arrived < len(s.enter) {
		s.enter[s.arrived], s.exit[s.arrived] = enter, exit
	}
	s.arrived++
}

// completer returns query qi's completion callback: given the sequence
// number of the last row of a sink call, it stamps every frame the call
// completed. Results leave in task order, so a row carrying sequence number
// s proves that every tuple up to the end of s's granule has been through the
// engine: the granule is the task (ϕ bytes, cut exactly) for single-input
// queries and the tumbling window for the join, whose pair cuts fall anywhere.
func (tr *frameTrace) completer(qi int, sp *spec) func(seq, t int64) {
	var mine []*streamTrace
	first := 0
	for i := 0; i < qi; i++ {
		first++
		if sp.queries[i].shape == shapeJoin {
			first++
		}
	}
	granule := int64(sp.phi / tupleSize)
	mine = append(mine, &tr.streams[first])
	if sp.queries[qi].shape == shapeJoin {
		mine = append(mine, &tr.streams[first+1])
		granule = sp.queries[qi].size
	}
	return func(seq, t int64) {
		through := (seq/granule + 1) * granule // tuples [0, through) are done
		for _, s := range mine {
			for s.completed < len(s.done) && int64(s.completed+1)*s.frameTuples <= through {
				s.done[s.completed] = t
				s.completed++
			}
		}
	}
}

// spanNames are the children of a frame span, in time order.
var spanNames = [4]string{"gen.late", "ingest.wire", "engine.insert", "engine.internal"}

// spanStats summarises the frames sent at or after from (the measured
// window): per child span its sorted durations, and the frame durations.
type spanStats struct {
	frame    []int64
	child    [4][]int64
	sendDur  []int64
	insertNs int64 // Σ engine.insert
	sendNs   int64 // Σ Send durations
	frames   int
}

func (tr *frameTrace) stats(from int64) spanStats {
	var st spanStats
	for i := range tr.streams {
		s := &tr.streams[i]
		for f := range s.due {
			if s.send[f] < from || s.done[f] == 0 || f >= s.arrived {
				continue
			}
			st.frames++
			st.frame = append(st.frame, s.done[f]-s.due[f])
			st.child[0] = append(st.child[0], s.send[f]-s.due[f])
			st.child[1] = append(st.child[1], s.enter[f]-s.send[f])
			st.child[2] = append(st.child[2], s.exit[f]-s.enter[f])
			st.child[3] = append(st.child[3], s.done[f]-s.exit[f])
			st.sendDur = append(st.sendDur, s.sent[f]-s.send[f])
			st.insertNs += s.exit[f] - s.enter[f]
			st.sendNs += s.sent[f] - s.send[f]
		}
	}
	less := func(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
	less(st.frame)
	less(st.sendDur)
	for i := range st.child {
		less(st.child[i])
	}
	return st
}

// maxTraceFrames bounds the frames per stream written to the trace file.
const maxTraceFrames = 1 << 16

// write stores the span trees as JSON lines, one frame per line, times in
// nanoseconds since the run's first due time. Each span is [name, parent
// index in the line's list, start, end]; spans of one frame share its id.
func (tr *frameTrace) write(name string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, name+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	span := func(name string, parent int, start, end int64) {
		line = append(line, `["`...)
		line = append(line, name...)
		line = append(line, `",`...)
		line = strconv.AppendInt(line, int64(parent), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, end, 10)
		line = append(line, ']')
	}
	for si := range tr.streams {
		s := &tr.streams[si]
		if len(s.due) == 0 {
			continue
		}
		t0 := s.due[0]
		for fr := 0; fr < len(s.due) && fr < maxTraceFrames && fr < s.arrived && s.done[fr] != 0; fr++ {
			line = append(line[:0], `{"trace":"`...)
			line = strconv.AppendInt(line, int64(si), 10)
			line = append(line, '.')
			line = strconv.AppendInt(line, int64(fr), 10)
			line = append(line, `","spans":[`...)
			span("frame", -1, s.due[fr]-t0, s.done[fr]-t0)
			line = append(line, ',')
			span(spanNames[0], 0, s.due[fr]-t0, s.send[fr]-t0)
			line = append(line, ',')
			span(spanNames[1], 0, s.send[fr]-t0, s.enter[fr]-t0)
			line = append(line, ',')
			span(spanNames[2], 0, s.enter[fr]-t0, s.exit[fr]-t0)
			line = append(line, ',')
			span(spanNames[3], 0, s.exit[fr]-t0, s.done[fr]-t0)
			line = append(line, "]}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
