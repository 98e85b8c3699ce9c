package main

import (
	"runtime"
	"runtime/metrics"
)

// liveHeap collects garbage and returns the bytes of heap the collector
// found live. Two cycles run so objects parked in sync.Pool victim caches
// are dropped whatever the previous cycle's timing: the reading then depends
// only on what the program holds, not on when the last GC happened.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtSnapshot is a reading of the runtime counters a measured phase reports
// as deltas.
type rtSnapshot struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readRuntime samples the runtime counters.
func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnapshot{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

// sub returns the counter deltas from o to r.
func (r rtSnapshot) sub(o rtSnapshot) rtSnapshot {
	return rtSnapshot{
		allocs:     r.allocs - o.allocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		gcCPU:      r.gcCPU - o.gcCPU,
	}
}
