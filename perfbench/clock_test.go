package main

import (
	"runtime"
	"testing"
	"time"
)

// spin burns CPU on the calling thread for about d of thread CPU time.
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for end := threadCPU() + int64(d); threadCPU() < end; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestThreadCPUCountsWorkNotSleep(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := checkClocks(); err != nil {
		t.Fatal(err)
	}
	c0 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := time.Duration(threadCPU() - c0); slept > 10*time.Millisecond {
		t.Errorf("thread CPU advanced %v over a 50ms sleep", slept)
	}
	p0, c1 := processCPU(), threadCPU()
	sink += spin(30 * time.Millisecond)
	busy, proc := time.Duration(threadCPU()-c1), time.Duration(processCPU()-p0)
	if busy < 30*time.Millisecond {
		t.Errorf("thread CPU advanced %v over 30ms of work", busy)
	}
	// getrusage has microsecond granularity and sums every thread, so it
	// covers the driving thread's work.
	if proc < busy-time.Millisecond {
		t.Errorf("process CPU %v is below the driving thread's %v", proc, busy)
	}
}

var retained []byte

func TestLiveHeapSeesRetainedBytes(t *testing.T) {
	const size = 8 << 20
	before := liveHeap()
	retained = make([]byte, size)
	after := liveHeap()
	grew := int64(after) - int64(before)
	if grew < size || grew > size+size/8 {
		t.Errorf("live heap grew %d bytes holding a %d-byte slice", grew, size)
	}
	retained = nil
	if freed := int64(after) - int64(liveHeap()); freed < size-size/8 {
		t.Errorf("live heap shrank %d bytes after dropping a %d-byte slice", freed, size)
	}
}

// The timer costs README.md quotes: go test -run '^$' -bench Clock -benchtime 200000x
func BenchmarkClockThreadCPU(b *testing.B) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var s int64
	for i := 0; i < b.N; i++ {
		s += threadCPU()
	}
	sink += uint64(s)
}

func BenchmarkClockProcessCPU(b *testing.B) {
	var s int64
	for i := 0; i < b.N; i++ {
		s += processCPU()
	}
	sink += uint64(s)
}

func BenchmarkClockWall(b *testing.B) {
	var s int64
	for i := 0; i < b.N; i++ {
		s += wallNow()
	}
	sink += uint64(s)
}
