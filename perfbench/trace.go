package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call into a layer during the traced run. Times are read
// from the driving thread's CPU clock, with wall-clock twins for the host
// diagnostics.
type span struct {
	Name string `json:"name"`
	// Op is the operation (index in the op stream) the call served.
	Op int32 `json:"op"`
	// Parent indexes the span this call is part of; -1 marks an
	// operation's root.
	Parent int32 `json:"parent"`
	Start  int64 `json:"cpu_start_ns"`
	End    int64 `json:"cpu_end_ns"`
	WStart int64 `json:"wall_start_ns"`
	WEnd   int64 `json:"wall_end_ns"`
}

// tracer records spans in memory; write saves them once the run is over.
type tracer struct {
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, WStart: wallNow(), Start: threadCPU()})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	s := &t.spans[i]
	s.End = threadCPU()
	s.WEnd = wallNow()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int
	// Total and Self are CPU nanoseconds: Self is Total minus the
	// durations of the spans' direct children.
	Total, Self int64
	// WallTotal and WallSelf are the wall-clock twins.
	WallTotal, WallSelf int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children. The client is single
// threaded, so children never overlap one another; a child may lie outside
// its parent's interval when it times a lockstep replica of work the parent
// hides (sdi-churn's twin index), and is subtracted all the same.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	wchild := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			wchild[s.Parent] += s.WEnd - s.WStart
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d, wd := s.End-s.Start, s.WEnd-s.WStart
		lt.Calls++
		lt.Total += d
		lt.Self += d - child[i]
		lt.WallTotal += wd
		lt.WallSelf += wd - wchild[i]
	}
	return out
}

// writeSpans saves spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
