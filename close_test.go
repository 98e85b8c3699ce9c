package accluster

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCloseAllEngines races four Close calls on every engine that
// owns goroutines: Adaptive, Sharded and Disk, each with its own flight
// recorder. Every Close must return, the sampler and endpoint goroutines
// must all exit, and the adaptive engines must stay usable. Under -race it
// also pins that the owned recorder is torn down exactly once.
func TestConcurrentCloseAllEngines(t *testing.T) {
	const dims = 3
	src, path := buildDiskCheckpoint(t, dims, 300)
	src.Close()
	base := runtime.NumGoroutine()

	a, err := NewAdaptive(dims, WithReorgEvery(5), WithTelemetryAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(dims, WithShards(2), WithReorgEvery(5), WithTelemetryAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(path, WithTelemetryAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}

	// Give the engines reorganization work and telemetry to sample.
	rng := rand.New(rand.NewSource(3))
	for id := uint32(0); id < 400; id++ {
		r := randomRect(rng, dims, 0.2)
		if err := a.Insert(id, r); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := randomRect(rng, dims, 0.3)
	counters := []interface {
		Count(Rect, Relation) (int, error)
	}{a, s, d}
	for i := 0; i < 50; i++ {
		for _, ix := range counters {
			if _, err := ix.Count(q, Intersects); err != nil {
				t.Fatal(err)
			}
		}
	}

	engines := []struct {
		name    string
		close   func() error
		wantNil bool
	}{
		{"adaptive", a.Close, true},
		{"sharded", s.Close, true},
		// The file device reports every Close after the first as already
		// closed, so only the teardown itself is checked here.
		{"disk", d.Close, false},
	}
	for _, e := range engines {
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = e.close()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if e.wantNil && err != nil {
				t.Errorf("%s: Close call %d: %v", e.name, i, err)
			}
		}
	}

	for _, ix := range []Index{a, s} {
		if n, err := ix.Count(q, Intersects); err != nil || n == 0 {
			t.Fatalf("%T after Close: Count = %d, %v", ix, n, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after Close; %d before the engines were built", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
