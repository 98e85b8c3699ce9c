//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time, in nanoseconds, consumed by the calling OS
// thread. The driving goroutine is locked to its thread (main calls
// runtime.LockOSThread), so two readings bracket that goroutine's work
// together with any GC assist charged to it, but not the time the thread
// spent descheduled or stolen by the hypervisor.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// processCPU returns the user plus system CPU time, in nanoseconds, of every
// thread of the process (getrusage RUSAGE_SELF): the GC's background workers
// and any helper goroutine are charged to the workload.
func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // checked once by checkClocks
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// checkClocks verifies once that both CPU clocks can be read, so the
// hot-path readers above can drop their error results.
func checkClocks() error {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	return nil
}

// wallEpoch anchors wallNow to the monotonic clock.
var wallEpoch = time.Now()

// wallNow returns monotonic wall-clock nanoseconds since program start. It
// feeds only the host.* diagnostics, never a gated metric.
func wallNow() int64 { return int64(time.Since(wallEpoch)) }
