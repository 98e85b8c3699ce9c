package accluster

// Tail-latency regression tests for the incremental budgeted reorganization
// scheduler, plus race stress for the steps publication drives.

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// reorgHeavyLoad bulk-loads n small objects so that concentrated queries
// materialize many clusters and keep the reorganization schedule busy.
func reorgHeavyLoad(t testing.TB, ix Index, n int, seed int64) {
	t.Helper()
	dims := ix.Dims()
	rng := rand.New(rand.NewSource(seed))
	r := NewRect(dims)
	for id := uint32(0); id < uint32(n); id++ {
		for d := 0; d < dims; d++ {
			size := rng.Float32() * 0.05
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
}

// hotQuery fills q with a selective box around a corner that drifts with i,
// so clusters keep forming and merging (reorg-heavy, never fully converged).
func hotQuery(q Rect, i int) {
	base := float32(i%5) * 0.18
	for d := 0; d < len(q.Min); d++ {
		q.Min[d], q.Max[d] = base, base+0.15
	}
}

// TestReorgLatencySmoothing drives a reorg-heavy query stream through the
// budgeted scheduler and asserts the worst single query stays within a
// factor of the median — the latency cliff this PR removes was the
// ReorgEvery-th query absorbing a full merge/split pass, two to three
// decimal orders above the median on this workload. Each query is timed on
// queryClock — the querying thread's CPU clock on Linux, the wall clock
// elsewhere — so a host stall does not count as query work. Timing bounds
// stay environment-sensitive, so the factor is generous and the test is
// skipped under -short and under the race detector's overhead.
func TestReorgLatencySmoothing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock latency distribution test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race detector overhead distorts the latency distribution")
	}
	run := func(opts ...Option) (median, p99, max time.Duration, rounds int64) {
		ix, err := NewAdaptive(8, append([]Option{WithReorgEvery(50)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		reorgHeavyLoad(t, ix, 30000, 1)
		const n = 1500
		q := NewRect(8)
		lat := make([]time.Duration, 0, n)
		var buf []uint32
		now, release := queryClock()
		defer release()
		for i := 0; i < n; i++ {
			hotQuery(q, i)
			start := now()
			buf, err = ix.SearchIDsAppend(buf[:0], q, Intersects)
			if err != nil {
				t.Fatal(err)
			}
			lat = append(lat, now()-start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], lat[len(lat)*99/100], lat[len(lat)-1], ix.ReorgRounds()
	}
	syncMed, syncP99, syncMax, _ := run(WithReorgBudget(Unbudgeted, Unbudgeted))
	med, p99, max, rounds := run() // default budgets
	t.Logf("synchronous full pass: median %v, p99 %v, max %v", syncMed, syncP99, syncMax)
	t.Logf("budgeted scheduler:    median %v, p99 %v, max %v (%d reorg rounds)", med, p99, max, rounds)
	if rounds < 10 {
		t.Fatalf("only %d reorganization rounds — workload does not exercise the scheduler", rounds)
	}
	// The synchronous pass put the full O(clusters)+relocation cost on one
	// query (observed here: max thousands of times the median); the
	// budgeted scheduler bounds every query's maintenance share. The
	// limit is 150× the budgeted median — with an escape hatch at ⅛ of
	// the measured synchronous max, so a slow or noisy machine that
	// inflates both distributions does not fail the relative claim.
	limit := med * 150
	if alt := syncMax / 8; alt > limit {
		limit = alt
	}
	if max > limit {
		t.Errorf("budgeted max query latency %v exceeds %v (median %v, sync max %v) — reorganization cliff is back",
			max, limit, med, syncMax)
	}
}

// TestReorgStress hammers reorganizing indexes from many goroutines; run
// under -race it checks the locking discipline of publication and the
// budgeted steps it drives, and the final invariant checks prove
// maintenance never corrupts the structures it rebuilds.
func TestReorgStress(t *testing.T) {
	t.Run("adaptive", func(t *testing.T) {
		ix, err := NewAdaptive(4, WithReorgEvery(20), WithReorgBudget(8, 512))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		stressEngine(t, ix, 20000)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		ix.Reorganize() // drain whatever the stream left pending
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		ix, err := NewSharded(4, WithShards(4), WithReorgEvery(20), WithReorgBudget(8, 512))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		stressEngine(t, ix, 40000)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		ix.Reorganize()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// stressEngine runs concurrent searches, inserts and deletes against ix
// while its reorganization steps run between them.
func stressEngine(t *testing.T, ix interface {
	Index
	Reorganize()
}, baseID uint32) {
	t.Helper()
	reorgHeavyLoad(t, ix, 5000, 7)
	const (
		workers = 4
		rounds  = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 101))
			dims := ix.Dims()
			q := NewRect(dims)
			r := NewRect(dims)
			id := baseID + uint32(w)*1000
			var buf []uint32
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0, 1:
					hotQuery(q, rng.Intn(10))
					ids, err := ix.SearchIDsAppend(buf[:0], q, Intersects)
					if err != nil {
						errs <- err
						return
					}
					buf = ids
				case 2:
					for d := 0; d < dims; d++ {
						lo := rng.Float32() * 0.9
						r.Min[d], r.Max[d] = lo, lo+0.05
					}
					if err := ix.Insert(id, r); err != nil {
						errs <- err
						return
					}
					id++
				case 3:
					if id > baseID+uint32(w)*1000 {
						ix.Delete(id - 1)
						id--
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// wallClock is queryClock's monotonic wall-clock form.
func wallClock() (now func() time.Duration, release func()) {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }, func() {}
}
