package diskengine

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/store"
	"accluster/internal/vdisk"
)

func randomRect(rng *rand.Rand, dims int, maxSize float32) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

// coreIDs runs one query on the in-memory index the way a single owner does
// — the read phase, then DrainStats, which applies the query's statistics
// record and takes one budgeted reorganization step — and returns its
// answer.
func coreIDs(ix *core.Index, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids, err := ix.SearchIDsAppendRead(nil, q, rel)
	ix.DrainStats()
	return ids, err
}

// buildCheckpoint creates a clustered index, checkpoints it onto a virtual
// disk and returns both. The clustering runs under the memory cost model:
// at these test scales the disk model's 15 ms seek keeps everything in one
// cluster, which would leave the multi-cluster query path untested — the
// engine executes whatever clustering the checkpoint carries. For the same
// reason it runs the paper's unpriced split and merge rule (PaperRule): the
// default rule charges relocations, which this short stream cannot earn
// back, and the subject here is the engine, not the rule.
func buildCheckpoint(t *testing.T, dims, n int) (*core.Index, *vdisk.Disk) {
	t.Helper()
	ix, err := core.New(core.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: 40, PaperRule: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for id := 0; id < n; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, dims, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, err := coreIDs(ix, randomRect(rng, dims, 0.1), geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	disk := vdisk.New(cost.DiskAccessMS, cost.TransferMSPerByte)
	if err := store.Save(ix, disk); err != nil {
		t.Fatal(err)
	}
	return ix, disk
}

func TestOpenAndMetadata(t *testing.T) {
	ix, disk := buildCheckpoint(t, 4, 3000)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dims() != 4 || e.Clusters() != ix.Clusters() || e.Len() != ix.Len() {
		t.Fatalf("metadata: dims=%d clusters=%d len=%d", e.Dims(), e.Clusters(), e.Len())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	disk := vdisk.New(15, 4.77e-5)
	if _, err := disk.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk); err == nil {
		t.Error("garbage device must fail to open")
	}
}

// TestAnswersMatchInMemoryIndex pins the disk engine's answers ID-for-ID
// against the in-memory core index on the same checkpoint, across all
// relations and across cache configurations: disabled (every query reads
// the device), default (repeat queries hit), and a tiny budget that churns
// the eviction path mid-stream. Each query runs twice so the cached
// re-execution is differentially checked too.
func TestAnswersMatchInMemoryIndex(t *testing.T) {
	ix, disk := buildCheckpoint(t, 5, 4000)
	configs := map[string]Config{
		"nocache":     {CacheBytes: -1},
		"default":     {},
		"tiny-evict":  {CacheBytes: 64 << 10},
		"noreadahead": {ReadaheadGap: -1},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			e, err := OpenConfig(disk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			for qi := 0; qi < 60; qi++ {
				q := randomRect(rng, 5, 0.4)
				rel := geom.Relation(qi % 3)
				want, err := coreIDs(ix, q, rel)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for pass := 0; pass < 2; pass++ {
					got, err := e.SearchIDs(q, rel)
					if err != nil {
						t.Fatal(err)
					}
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					if len(got) != len(want) {
						t.Fatalf("query %d rel %v pass %d: %d results, want %d", qi, rel, pass, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("query %d rel %v pass %d: mismatch", qi, rel, pass)
						}
					}
					n, err := e.Count(q, rel)
					if err != nil {
						t.Fatal(err)
					}
					if n != len(want) {
						t.Fatalf("query %d rel %v pass %d: count %d, want %d", qi, rel, pass, n, len(want))
					}
				}
			}
		})
	}
}

func TestVirtualTimeMatchesAccessPattern(t *testing.T) {
	_, disk := buildCheckpoint(t, 4, 3000)
	// Cache disabled so every query really drives the device; coalescing
	// stays on — the point is that the meter and the virtual clock agree
	// on the coalesced access pattern.
	e, err := OpenConfig(disk, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetClock()
	e.ResetMeter()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		q := randomRect(rng, 4, 0.2)
		if _, err := e.Count(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Meter()
	st := disk.Stats()
	// Every coalesced run is one device read, charged as one Seek by the
	// meter; the run count is at most the exploration count (coalescing
	// only merges).
	if st.Reads != m.Seeks {
		t.Fatalf("disk reads %d != meter seeks %d", st.Reads, m.Seeks)
	}
	if m.Seeks > m.Explorations {
		t.Fatalf("more seeks than explorations: %+v", m)
	}
	if st.Bytes != m.BytesTransferred {
		t.Fatalf("disk bytes %d != meter bytes transferred %d", st.Bytes, m.BytesTransferred)
	}
	if st.Seeks > st.Reads {
		t.Fatalf("more seeks than reads: %+v", st)
	}
	// The virtual clock must agree with the counter-based model: seeks ×
	// 15 ms + bytes × transfer. Regions include reserved slots, so use
	// the disk's own byte count.
	want := float64(st.Seeks)*cost.DiskAccessMS + float64(st.Bytes)*cost.TransferMSPerByte
	if st.ElapsedMS < want*0.999 || st.ElapsedMS > want*1.001 {
		t.Fatalf("virtual clock %g, want %g", st.ElapsedMS, want)
	}
	// And it must be in the same ballpark as the meter's modeled disk
	// time (the meter transfers regions too).
	modeled := m.ModeledMS(cost.Disk()) // byte-level accounting
	if modeled <= 0 {
		t.Fatal("modeled time must be positive")
	}
	ratio := st.ElapsedMS / modeled
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("virtual clock %g vs modeled %g (ratio %g)", st.ElapsedMS, modeled, ratio)
	}
}

func TestSequentialScanLayoutIsOneSeek(t *testing.T) {
	// A database checkpointed before any query has a single cluster (the
	// root): the disk engine's scan must then be one seek plus one
	// sequential transfer — exactly the sequential-scan disk behaviour.
	ix, err := core.New(core.Config{Dims: 3, Params: cost.Disk()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for id := 0; id < 2000; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, 3, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	disk := vdisk.New(cost.DiskAccessMS, cost.TransferMSPerByte)
	if err := store.Save(ix, disk); err != nil {
		t.Fatal(err)
	}
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	if e.Clusters() != 1 {
		t.Fatalf("expected the root cluster only, got %d", e.Clusters())
	}
	disk.ResetClock()
	if _, err := e.Count(randomRect(rng, 3, 0.5), geom.Intersects); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	// One region read; at most one seek (zero when the head happens to
	// rest exactly at the region start after Open read the directory).
	if st.Reads != 1 || st.Seeks > 1 {
		t.Fatalf("full scan should be one region read: %+v", st)
	}
	wantMS := float64(st.Seeks)*cost.DiskAccessMS + float64(st.Bytes)*cost.TransferMSPerByte
	if st.ElapsedMS < wantMS*0.999 || st.ElapsedMS > wantMS*1.001 {
		t.Fatalf("elapsed %g, want %g", st.ElapsedMS, wantMS)
	}
}

func TestSearchValidationAndEarlyStop(t *testing.T) {
	_, disk := buildCheckpoint(t, 4, 1000)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Search(geom.Point([]float32{0.5}), geom.Intersects, func(uint32) bool { return true }); err == nil {
		t.Error("wrong dims must fail")
	}
	if err := e.Search(geom.Point([]float32{0.5, 0.5, 0.5, 0.5}), geom.Relation(9), func(uint32) bool { return true }); err == nil {
		t.Error("bad relation must fail")
	}
	full := geom.Rect{Min: []float32{0, 0, 0, 0}, Max: []float32{1, 1, 1, 1}}
	n := 0
	if err := e.Search(full, geom.Intersects, func(uint32) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop delivered %d", n)
	}
}

func TestCorruptRegionSurfacesDuringSearch(t *testing.T) {
	_, disk := buildCheckpoint(t, 4, 1500)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the device (inside some region, past
	// the directory).
	size, _ := disk.Size()
	if err := disk.Corrupt(size - 3); err != nil {
		t.Fatal(err)
	}
	full := geom.Rect{Min: []float32{0, 0, 0, 0}, Max: []float32{1, 1, 1, 1}}
	if err := e.Search(full, geom.Intersects, func(uint32) bool { return true }); err == nil {
		t.Error("corrupt region must surface as an error on exploration")
	}
}

// TestMeterCacheAccounting pins the accounting rules of the cached query
// path: a cache hit charges no Seeks and no BytesTransferred but still
// counts Explorations and ObjectsVerified, and the hit/miss counters track
// residency.
func TestMeterCacheAccounting(t *testing.T) {
	_, disk := buildCheckpoint(t, 4, 3000)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	q := randomRect(rand.New(rand.NewSource(61)), 4, 0.3)

	e.ResetMeter()
	if _, err := e.Count(q, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	cold := e.Meter()
	if cold.Explorations == 0 {
		t.Fatal("query explored nothing; widen it")
	}
	if cold.CacheMisses != cold.Explorations || cold.CacheHits != 0 {
		t.Fatalf("cold query: hits=%d misses=%d explorations=%d", cold.CacheHits, cold.CacheMisses, cold.Explorations)
	}
	if cold.Seeks == 0 || cold.BytesTransferred == 0 {
		t.Fatalf("cold query transferred nothing: %+v", cold)
	}

	disk.ResetClock()
	e.ResetMeter()
	if _, err := e.Count(q, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	warm := e.Meter()
	if warm.CacheHits != cold.Explorations || warm.CacheMisses != 0 {
		t.Fatalf("warm query: hits=%d misses=%d, want %d hits", warm.CacheHits, warm.CacheMisses, cold.Explorations)
	}
	if warm.Seeks != 0 || warm.BytesTransferred != 0 {
		t.Fatalf("cache hits must charge no I/O: %+v", warm)
	}
	if warm.Explorations != cold.Explorations || warm.ObjectsVerified != cold.ObjectsVerified {
		t.Fatalf("hits must still count explorations and verified objects: warm %+v cold %+v", warm, cold)
	}
	if warm.Results != cold.Results {
		t.Fatalf("warm results %d != cold results %d", warm.Results, cold.Results)
	}
	if st := disk.Stats(); st.Reads != 0 {
		t.Fatalf("warm query touched the device: %+v", st)
	}
	if cs := e.CacheStats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Fatalf("cache stats empty after warm query: %+v", cs)
	}
}

// TestCoalescedReadsCutSeeks pins the readahead claim: a cold multi-cluster
// query with coalescing issues strictly fewer device reads (= seeks in the
// meter) than one without, and both return identical answers.
func TestCoalescedReadsCutSeeks(t *testing.T) {
	_, disk := buildCheckpoint(t, 4, 6000)
	q := geom.Rect{Min: []float32{0, 0, 0, 0}, Max: []float32{1, 1, 1, 1}}

	run := func(gap int64) (cost.Meter, []uint32) {
		e, err := OpenConfig(disk, Config{CacheBytes: -1, ReadaheadGap: gap})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := e.SearchIDs(q, geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return e.Meter(), ids
	}
	plain, plainIDs := run(-1)
	coal, coalIDs := run(DefaultReadaheadGap)
	if plain.Explorations < 4 {
		t.Fatalf("need a multi-cluster checkpoint, explored %d", plain.Explorations)
	}
	if plain.Seeks != plain.Explorations {
		t.Fatalf("uncoalesced engine must seek per exploration: %+v", plain)
	}
	if coal.Seeks >= plain.Seeks {
		t.Fatalf("coalescing did not cut seeks: %d vs %d", coal.Seeks, plain.Seeks)
	}
	if len(plainIDs) != len(coalIDs) {
		t.Fatalf("answer sets differ: %d vs %d", len(plainIDs), len(coalIDs))
	}
	for i := range plainIDs {
		if plainIDs[i] != coalIDs[i] {
			t.Fatal("answer mismatch between coalesced and individual reads")
		}
	}
	// Coalesced runs may transfer gap bytes, but never more than the gap
	// bound per merged region.
	if coal.BytesTransferred < plain.BytesTransferred {
		t.Fatalf("coalesced read transferred fewer bytes than the regions: %d < %d", coal.BytesTransferred, plain.BytesTransferred)
	}
}

// TestZeroAllocWarmPath pins the steady-state allocation contract: once the
// working set is cached, SearchIDsAppend with a reused buffer and Count
// allocate nothing.
func TestZeroAllocWarmPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, disk := buildCheckpoint(t, 4, 3000)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	queries := make([]geom.Rect, 8)
	for i := range queries {
		queries[i] = randomRect(rng, 4, 0.3)
	}
	var buf []uint32
	for _, q := range queries { // warm the cache and the scratch pool
		if buf, err = e.SearchIDsAppend(buf[:0], q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	allocs := testing.AllocsPerRun(50, func() {
		q := queries[qi%len(queries)]
		qi++
		out, err := e.SearchIDsAppend(buf[:0], q, geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
		if _, err := e.Count(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hit path allocates %.1f times per query pair, want 0", allocs)
	}
}

// TestAllocsPerMiss pins the allocation cost of a cache miss: a Region and
// its three backing arrays (member ids, the one Lo/Hi header array and the
// column slab; an empty region has no ids or slab to allocate), nothing
// else. A one-byte cache admits no region, so every cluster the
// full-domain query explores misses and decodes afresh on every run.
func TestAllocsPerMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, disk := buildCheckpoint(t, 4, 3000)
	e, err := OpenConfig(disk, Config{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range e.dir {
		want += 2
		if d.Count > 0 {
			want += 2
		}
	}
	q := geom.Rect{Min: []float32{0, 0, 0, 0}, Max: []float32{1, 1, 1, 1}}
	var buf []uint32
	e.ResetMeter()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		if buf, err = e.SearchIDsAppend(buf[:0], q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun makes one warm-up call before the measured runs.
	if m := e.Meter(); m.CacheMisses != (runs+1)*int64(len(e.dir)) || m.CacheHits != 0 {
		t.Fatalf("want every one of %d clusters to miss on each of %d queries: %+v", len(e.dir), runs+1, m)
	}
	if allocs != float64(want) {
		t.Fatalf("%d misses per query allocate %.1f times, want %d (4 per non-empty region, 2 per empty one)",
			len(e.dir), allocs, want)
	}
}

// TestConcurrentSearchEvictionStress races concurrent searches against a
// cache whose budget holds only a fraction of the working set, so pins,
// insertions and CLOCK evictions interleave constantly (run under -race in
// CI). Every answer must still match the serial reference.
func TestConcurrentSearchEvictionStress(t *testing.T) {
	ix, disk := buildCheckpoint(t, 4, 3000)
	e, err := OpenConfig(disk, Config{CacheBytes: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	queries := make([]geom.Rect, 16)
	want := make([][]uint32, len(queries))
	for i := range queries {
		queries[i] = randomRect(rng, 4, 0.3)
		ids, err := coreIDs(ix, queries[i], geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		want[i] = ids
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []uint32
			for round := 0; round < 6; round++ {
				for i := range queries {
					got, err := e.SearchIDsAppend(buf[:0], queries[i], geom.Intersects)
					if err != nil {
						t.Errorf("worker %d query %d: %v", w, i, err)
						return
					}
					buf = got
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					if len(got) != len(want[i]) {
						t.Errorf("worker %d query %d: %d results, want %d", w, i, len(got), len(want[i]))
						return
					}
					for k := range got {
						if got[k] != want[i][k] {
							t.Errorf("worker %d query %d: answer mismatch", w, i)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	cs := e.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("stress never evicted — budget too large for the working set: %+v", cs)
	}
	if cs.UsedBytes > cs.BudgetBytes {
		t.Fatalf("cache exceeded its budget at rest: %+v", cs)
	}
}

// TestConcurrentSearch pins the concurrent-read contract: many goroutines
// querying one Engine must return the serial answer sets and lose no meter
// counts (run under -race in CI).
func TestConcurrentSearch(t *testing.T) {
	ix, disk := buildCheckpoint(t, 4, 3000)
	e, err := Open(disk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	queries := make([]geom.Rect, 32)
	want := make([][]uint32, len(queries))
	for i := range queries {
		queries[i] = randomRect(rng, 4, 0.3)
		ids, err := coreIDs(ix, queries[i], geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		want[i] = ids
	}
	e.ResetMeter()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				got, err := e.SearchIDs(queries[i], geom.Intersects)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if len(got) != len(want[i]) {
					t.Errorf("worker %d query %d: %d results, want %d", w, i, len(got), len(want[i]))
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						t.Errorf("worker %d query %d: answer mismatch", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if q := e.Meter().Queries; q != int64(workers*len(queries)) {
		t.Fatalf("meter lost queries: %d, want %d", q, workers*len(queries))
	}
}
