package accluster

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// queryClock returns a clock for timing queries issued from the calling
// goroutine, and a release function to call when the timing ends. On Linux
// it is the CPU time of the calling OS thread, with the goroutine locked to
// that thread: a query's reading covers the work done on the querying
// thread, GC assists included, but not time the thread spent descheduled or
// stolen by a hypervisor — the host stalls that once failed the latency
// bound on one-sample outliers.
func queryClock() (now func() time.Duration, release func()) {
	runtime.LockOSThread()
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		runtime.UnlockOSThread()
		return wallClock()
	}
	return func() time.Duration {
		syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
		return time.Duration(ts.Nano())
	}, runtime.UnlockOSThread
}
