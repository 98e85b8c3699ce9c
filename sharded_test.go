package accluster

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func sortedIDs(t *testing.T, ix Index, q Rect, rel Relation) []uint32 {
	t.Helper()
	ids, err := ix.SearchIDs(q, rel)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func idsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesAdaptive is the determinism cross-check: over identical
// data and queries, the sharded engine must return exactly the result sets
// of the single adaptive index, for every relation and interleaved with
// updates and deletes.
func TestShardedMatchesAdaptive(t *testing.T) {
	const dims, objects = 6, 3000
	single, err := NewAdaptive(dims, WithReorgEvery(50))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(dims, WithReorgEvery(50), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for id := uint32(0); id < objects; id++ {
		r := randomRect(rng, dims, 0.4)
		if err := single.Insert(id, r); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if single.Len() != sharded.Len() {
		t.Fatalf("Len: single=%d sharded=%d", single.Len(), sharded.Len())
	}

	rels := []Relation{Intersects, ContainedBy, Encloses}
	for round := 0; round < 30; round++ {
		// Mutate both the same way: update a few, delete a few.
		for i := 0; i < 5; i++ {
			id := uint32(rng.Intn(objects))
			r := randomRect(rng, dims, 0.4)
			errS := single.Update(id, r)
			errP := sharded.Update(id, r)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("Update(%d) diverged: single=%v sharded=%v", id, errS, errP)
			}
		}
		for i := 0; i < 3; i++ {
			id := uint32(rng.Intn(objects))
			if single.Delete(id) != sharded.Delete(id) {
				t.Fatalf("Delete(%d) diverged", id)
			}
		}
		q := randomRect(rng, dims, 0.6)
		for _, rel := range rels {
			want := sortedIDs(t, single, q, rel)
			got := sortedIDs(t, sharded, q, rel)
			if !idsEqual(want, got) {
				t.Fatalf("round %d rel %v: single returned %d ids, sharded %d ids",
					round, rel, len(want), len(got))
			}
		}
		// Point-enclosure: the SDI event case.
		p := NewRect(dims)
		for d := 0; d < dims; d++ {
			p.Min[d] = rng.Float32()
			p.Max[d] = p.Min[d]
		}
		if !idsEqual(sortedIDs(t, single, p, Encloses), sortedIDs(t, sharded, p, Encloses)) {
			t.Fatalf("round %d: point-enclosure diverged", round)
		}
	}
	if err := sharded.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedStress hammers one sharded engine from many goroutines with
// mixed inserts, updates, deletes, searches of all relations and stats
// reads; run under -race it is the concurrency safety proof.
func TestShardedStress(t *testing.T) {
	const dims, workers, opsPerWorker = 4, 8, 400
	ix, err := NewSharded(dims, WithShards(4), WithReorgEvery(20))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Disjoint id space per worker: w*10^6 + k.
			base := uint32(w) * 1_000_000
			inserted := 0
			for k := 0; k < opsPerWorker; k++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert
					if err := ix.Insert(base+uint32(inserted), randomRect(rng, dims, 0.5)); err != nil {
						errCh <- err
						return
					}
					inserted++
				case 4: // update something we own
					if inserted > 0 {
						id := base + uint32(rng.Intn(inserted))
						err := ix.Update(id, randomRect(rng, dims, 0.5))
						if err != nil && !errors.Is(err, ErrNotFound) {
							errCh <- err
							return
						}
					}
				case 5: // delete something we own
					if inserted > 0 {
						ix.Delete(base + uint32(rng.Intn(inserted)))
					}
				case 6: // stats and point reads
					_ = ix.Stats()
					_, _ = ix.Get(base)
					_ = ix.Len()
				default: // search, all relations
					q := randomRect(rng, dims, 0.7)
					rel := []Relation{Intersects, ContainedBy, Encloses}[rng.Intn(3)]
					if _, err := ix.SearchIDs(q, rel); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedInsertBatch checks bulk-load parity with per-object inserts.
func TestShardedInsertBatch(t *testing.T) {
	const dims = 5
	rng := rand.New(rand.NewSource(9))
	var ids []uint32
	var rects []Rect
	for id := uint32(0); id < 2000; id++ {
		ids = append(ids, id)
		rects = append(rects, randomRect(rng, dims, 0.3))
	}
	loop, err := NewSharded(dims, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewSharded(dims, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := range ids {
		if err := loop.Insert(ids[k], rects[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.InsertBatch(ids, rects); err != nil {
		t.Fatal(err)
	}
	if loop.Len() != batch.Len() {
		t.Fatalf("Len: loop=%d batch=%d", loop.Len(), batch.Len())
	}
	q := randomRect(rng, dims, 0.8)
	if !idsEqual(sortedIDs(t, loop, q, Intersects), sortedIDs(t, batch, q, Intersects)) {
		t.Error("batch-loaded engine answers differ")
	}
	// Adaptive.InsertBatch parity too.
	ad, err := NewAdaptive(dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.InsertBatch(ids, rects); err != nil {
		t.Fatal(err)
	}
	if !idsEqual(sortedIDs(t, ad, q, Intersects), sortedIDs(t, batch, q, Intersects)) {
		t.Error("Adaptive.InsertBatch answers differ")
	}
	if err := ad.InsertBatch(ids[:1], nil); err == nil {
		t.Error("mismatched lengths must fail")
	}
}

// TestShardedPersistence round-trips a sharded database through SaveDir /
// OpenSharded.
func TestShardedPersistence(t *testing.T) {
	const dims = 4
	ix, err := NewSharded(dims, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for id := uint32(0); id < 1500; id++ {
		if err := ix.Insert(id, randomRect(rng, dims, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	// Converge some clustering so non-trivial shard structure is saved.
	for i := 0; i < 300; i++ {
		if _, err := ix.SearchIDs(randomRect(rng, dims, 0.5), Intersects); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "sharded-db")
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, WithReorgEvery(25))
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != ix.Shards() || re.Len() != ix.Len() || re.Dims() != dims {
		t.Fatalf("reloaded shards=%d len=%d dims=%d, want %d/%d/%d",
			re.Shards(), re.Len(), re.Dims(), ix.Shards(), ix.Len(), dims)
	}
	for i := 0; i < 10; i++ {
		q := randomRect(rng, dims, 0.6)
		for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
			if !idsEqual(sortedIDs(t, ix, q, rel), sortedIDs(t, re, q, rel)) {
				t.Fatalf("query %d rel %v: reloaded answers differ", i, rel)
			}
		}
	}
	if err := re.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if _, err := OpenSharded(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing directory must fail")
	}
}

// TestShardedStatsAndInspect exercises the aggregated observability surface.
func TestShardedStatsAndInspect(t *testing.T) {
	ix, err := NewSharded(3, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for id := uint32(0); id < 1000; id++ {
		if err := ix.Insert(id, randomRect(rng, 3, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, err := ix.SearchIDs(randomRect(rng, 3, 0.5), Intersects); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.Stats()
	if st.Queries != queries {
		t.Errorf("Stats.Queries=%d, want %d logical queries", st.Queries, queries)
	}
	if st.Objects != 1000 || st.Dims != 3 {
		t.Errorf("Stats objects/dims = %d/%d", st.Objects, st.Dims)
	}
	if st.Partitions < ix.Shards() {
		t.Errorf("Partitions=%d, want ≥ shard count %d (one root cluster each)", st.Partitions, ix.Shards())
	}
	if ms := st.ModeledMSPerQuery(MemoryScenario()); ms <= 0 {
		t.Errorf("ModeledMSPerQuery=%g, want > 0", ms)
	}
	per := ix.ShardStats()
	if len(per) != ix.Shards() {
		t.Fatalf("ShardStats returned %d entries, want %d", len(per), ix.Shards())
	}
	totalObjs := 0
	for _, s := range per {
		totalObjs += s.Objects
	}
	if totalObjs != 1000 {
		t.Errorf("per-shard objects sum to %d, want 1000", totalObjs)
	}
	if infos := ix.ClusterInfos(); len(infos) != ix.Clusters() {
		t.Errorf("ClusterInfos returned %d entries, want %d", len(infos), ix.Clusters())
	}
	ix.ResetStats()
	if st := ix.Stats(); st.Queries != 0 {
		t.Errorf("after ResetStats, Queries=%d", st.Queries)
	}
	// Force a reorganization round across shards.
	before := ix.ReorgRounds()
	ix.Reorganize()
	if ix.ReorgRounds() != before+int64(ix.Shards()) {
		t.Errorf("Reorganize ran %d rounds, want %d", ix.ReorgRounds()-before, ix.Shards())
	}
}

// TestUpdateParity checks Update across every Index implementation.
func TestUpdateParity(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(31))
	build := map[string]func() (Index, error){
		"adaptive": func() (Index, error) { return NewAdaptive(dims) },
		"sharded":  func() (Index, error) { return NewSharded(dims, WithShards(4)) },
		"seqscan":  func() (Index, error) { return NewSeqScan(dims) },
		"rstar":    func() (Index, error) { return NewRStar(dims) },
	}
	for name, mk := range build {
		ix, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1 := randomRect(rng, dims, 0.2)
		if err := ix.Insert(1, r1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2 := randomRect(rng, dims, 0.2)
		if err := ix.Update(1, r2); err != nil {
			t.Fatalf("%s: Update: %v", name, err)
		}
		if got, ok := ix.Get(1); !ok || !got.Equal(r2) {
			t.Errorf("%s: after Update, Get = %v,%v want %v", name, got, ok, r2)
		}
		if ix.Len() != 1 {
			t.Errorf("%s: Len=%d after Update, want 1", name, ix.Len())
		}
		if err := ix.Update(2, r2); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: Update of absent id = %v, want ErrNotFound", name, err)
		}
		// A failed update must not destroy the stored object.
		if err := ix.Update(1, NewRect(dims+1)); err == nil {
			t.Errorf("%s: dims-mismatched Update must fail", name)
		}
		if got, ok := ix.Get(1); !ok || !got.Equal(r2) {
			t.Errorf("%s: object lost after failed Update", name)
		}
	}
}
