package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"accluster/internal/geom"
)

// loadIndex fills an index with n random objects.
func loadIndex(t *testing.T, ix *Index, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < n; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, ix.Dims(), 0.4)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStatsMatchSerial pins the statistics-publication contract:
// running the same query set through the concurrent read path (SearchRead +
// one DrainStats) must leave exactly the statistics the serial path leaves —
// the increments are integer additions, so any interleaving commutes. The
// configuration keeps every query inside one epoch (no decay applied), the
// regime where equality is exact rather than up to float rounding.
func TestConcurrentStatsMatchSerial(t *testing.T) {
	const (
		dims    = 6
		objects = 4000
		queries = 256
	)
	cfg := Config{Dims: dims, ReorgEvery: 1 << 30}
	build := func() *Index {
		ix := mustNew(t, cfg)
		loadIndex(t, ix, objects, 7)
		// Converge a clustering first so queries touch many clusters.
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 300; i++ {
			if _, err := searchIDs(ix, randomRect(rng, dims, 0.2), geom.Intersects); err != nil {
				t.Fatal(err)
			}
		}
		ix.Reorganize()
		return ix
	}
	qs := make([]geom.Rect, queries)
	rng := rand.New(rand.NewSource(9))
	for i := range qs {
		qs[i] = randomRect(rng, dims, 0.25)
	}

	serial := build()
	for _, q := range qs {
		if _, err := searchIDs(serial, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}

	conc := build()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += 8 {
				if err := conc.SearchRead(qs[i], geom.Intersects, func(uint32) bool { return true }); err != nil {
					t.Errorf("concurrent query %d: %v", i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	conc.DrainStats()

	if sw, cw := serial.StatsWindow(), conc.StatsWindow(); sw != cw {
		t.Fatalf("statistics window: serial %g, concurrent %g", sw, cw)
	}
	// No epoch rolled and no mutation ran between the builds, so the
	// cluster sets are identical and Snapshot (breadth-first, deterministic)
	// aligns positionally.
	ss, cs := serial.Snapshot(), conc.Snapshot()
	if len(ss) != len(cs) {
		t.Fatalf("cluster count: serial %d, concurrent %d", len(ss), len(cs))
	}
	for i := range ss {
		if ss[i].Signature.String() != cs[i].Signature.String() {
			t.Fatalf("cluster %d: signature %s vs %s", i, ss[i].Signature, cs[i].Signature)
		}
		if ss[i].Q != cs[i].Q {
			t.Fatalf("cluster %d: Q %g vs %g", i, ss[i].Q, cs[i].Q)
		}
		for k := range ss[i].CandQ {
			if ss[i].CandQ[k] != cs[i].CandQ[k] {
				t.Fatalf("cluster %d candidate %d: q %g vs %g", i, k, ss[i].CandQ[k], cs[i].CandQ[k])
			}
		}
	}
	sm, cm := serial.Meter(), conc.Meter()
	if sm != cm {
		t.Fatalf("meters diverge:\nserial     %+v\nconcurrent %+v", sm, cm)
	}
}

// TestConcurrentReadAnswersMatchSerial pins exactness under concurrency:
// with no mutations interleaved, concurrent readers must return the serial
// answer sets.
func TestConcurrentReadAnswersMatchSerial(t *testing.T) {
	const dims = 5
	ix := mustNew(t, Config{Dims: dims})
	loadIndex(t, ix, 3000, 17)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		if _, err := searchIDs(ix, randomRect(rng, dims, 0.3), geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]geom.Rect, 64)
	rels := make([]geom.Relation, len(qs))
	want := make([][]uint32, len(qs))
	for i := range qs {
		qs[i] = randomRect(rng, dims, 0.35)
		rels[i] = geom.Relation(i % 3)
		ids, err := searchIDs(ix, qs[i], rels[i])
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		want[i] = ids
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []uint32
			for i := range qs {
				got, err := ix.SearchIDsAppendRead(buf[:0], qs[i], rels[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				buf = got
				sorted := append([]uint32(nil), got...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				if len(sorted) != len(want[i]) {
					t.Errorf("query %d: %d results, want %d", i, len(sorted), len(want[i]))
					return
				}
				for k := range sorted {
					if sorted[k] != want[i][k] {
						t.Errorf("query %d: answer mismatch at %d", i, k)
						return
					}
				}
				// Counting must agree with retrieval under concurrency too.
				n, err := ix.CountRead(qs[i], rels[i])
				if err != nil || n != len(want[i]) {
					t.Errorf("query %d: count %d (%v), want %d", i, n, err, len(want[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ix.DrainStats()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainStatsBacklog exercises the mailbox paths: deltas accumulate
// while no exclusive holder runs, then one drain applies them all in
// enqueue order, and the backlog gauge tracks.
func TestDrainStatsBacklog(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 1 << 30})
	loadIndex(t, ix, 500, 27)
	q := geom.Rect{Min: []float32{0, 0, 0}, Max: []float32{1, 1, 1}}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := ix.CountRead(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.StatsBacklog(); got != n {
		t.Fatalf("backlog %d, want %d", got, n)
	}
	ix.DrainStats()
	if got := ix.StatsBacklog(); got != 0 {
		t.Fatalf("backlog %d after drain", got)
	}
	if w := ix.StatsWindow(); w != n {
		t.Fatalf("window %g, want %d", w, n)
	}
	if q := ix.Meter().Queries; q != n {
		t.Fatalf("meter queries %d, want %d", q, n)
	}
}

// TestTryDrainStatsRespectsReaders pins the opportunistic publication
// policy: below the watermark a held lock skips publication entirely; the
// deltas survive for the next exclusive holder.
func TestTryDrainStatsRespectsReaders(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 1 << 30})
	loadIndex(t, ix, 100, 37)
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	if _, err := ix.CountRead(q, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	mu.RLock()
	//acvet:ignore lockdiscipline deliberately drains under the read lock to pin the blocked-drain policy
	ix.TryDrainStats(&mu)
	if ix.StatsBacklog() != 1 {
		t.Fatalf("delta lost: backlog %d", ix.StatsBacklog())
	}
	mu.RUnlock()
	ix.TryDrainStats(&mu)
	if ix.StatsBacklog() != 0 {
		t.Fatalf("delta not applied: backlog %d", ix.StatsBacklog())
	}
	if w := ix.StatsWindow(); w != 1 {
		t.Fatalf("window %g, want 1", w)
	}
}
