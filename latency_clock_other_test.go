//go:build !linux

package accluster

import "time"

// queryClock returns a clock for timing queries issued from the calling
// goroutine, and a release function to call when the timing ends. Off Linux
// it is the monotonic wall clock.
func queryClock() (now func() time.Duration, release func()) { return wallClock() }
