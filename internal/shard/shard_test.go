package shard

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
)

func testConfig(dims, shards int) Config {
	return Config{Shards: shards, Core: core.Config{Dims: dims}}
}

// randRect produces a small random rectangle in [0,1]^dims.
func randRect(rng *rand.Rand, dims int) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		lo := rng.Float32() * 0.9
		r.Min[d] = lo
		r.Max[d] = lo + rng.Float32()*(1-lo)
	}
	return r
}

func TestConfigDefaults(t *testing.T) {
	e, err := New(testConfig(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Shards(); s&(s-1) != 0 || s < 1 {
		t.Errorf("default shard count %d is not a power of two", s)
	}
	for _, in := range []int{1, 2, 3, 5, 8, 9} {
		e, err := New(testConfig(4, in))
		if err != nil {
			t.Fatal(err)
		}
		want := ceilPow2(in)
		if e.Shards() != want {
			t.Errorf("Shards=%d rounded to %d, want %d", in, e.Shards(), want)
		}
	}
	if _, err := New(testConfig(4, -1)); err == nil {
		t.Error("negative shard count must fail")
	}
	if _, err := New(testConfig(4, maxShards+1)); err == nil {
		t.Error("huge shard count must fail")
	}
	if _, err := New(testConfig(0, 4)); err == nil {
		t.Error("zero dims must fail")
	}
}

func TestRoutingBalance(t *testing.T) {
	e, err := New(testConfig(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Sequential ids — the common case — must spread over all shards.
	r := geom.NewRect(2)
	r.Max[0], r.Max[1] = 1, 1
	const n = 8000
	for id := uint32(0); id < n; id++ {
		if err := e.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != n {
		t.Fatalf("Len=%d, want %d", e.Len(), n)
	}
	for i, info := range e.ShardInfos() {
		frac := float64(info.Objects) / n
		if frac < 0.5/8 || frac > 2.0/8 {
			t.Errorf("shard %d holds %.1f%% of objects, want near %.1f%%", i, 100*frac, 100.0/8)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPointOperations(t *testing.T) {
	e, err := New(testConfig(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rects := make(map[uint32]geom.Rect)
	for id := uint32(0); id < 500; id++ {
		r := randRect(rng, 3)
		rects[id] = r
		if err := e.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Insert(42, rects[42]); !errors.Is(err, core.ErrDuplicateID) {
		t.Errorf("duplicate insert: %v, want ErrDuplicateID", err)
	}
	for id, want := range rects {
		got, ok := e.Get(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("Get(%d) = %v,%v, want %v", id, got, ok, want)
		}
	}
	// Update relocates within the owning shard.
	nu := randRect(rng, 3)
	if err := e.Update(42, nu); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Get(42); !got.Equal(nu) {
		t.Errorf("after Update, Get(42) = %v, want %v", got, nu)
	}
	if err := e.Update(99999, nu); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Update of absent id: %v, want ErrNotFound", err)
	}
	if !e.Delete(42) || e.Delete(42) {
		t.Error("Delete must succeed once then report absence")
	}
	if _, ok := e.Get(42); ok {
		t.Error("Get after Delete must miss")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertBatch(t *testing.T) {
	dims := 3
	a, err := New(testConfig(dims, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(dims, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var ids []uint32
	var rects []geom.Rect
	for id := uint32(0); id < 1000; id++ {
		ids = append(ids, id)
		rects = append(rects, randRect(rng, dims))
	}
	for k := range ids {
		if err := a.Insert(ids[k], rects[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.InsertBatch(ids, rects); err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("batch Len=%d, loop Len=%d", b.Len(), a.Len())
	}
	q := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		q.Min[d], q.Max[d] = 0.2, 0.8
	}
	for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
		wantIDs, err := a.SearchIDsAppend(nil, q, rel)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := b.SearchIDsAppend(nil, q, rel)
		if err != nil {
			t.Fatal(err)
		}
		sortIDs(wantIDs)
		sortIDs(gotIDs)
		if !equalIDs(wantIDs, gotIDs) {
			t.Errorf("rel %v: batch-loaded engine answers differ", rel)
		}
	}
	if err := b.InsertBatch([]uint32{1, 2}, rects[:1]); err == nil {
		t.Error("mismatched batch lengths must fail")
	}
	if err := b.InsertBatch(ids[:2], rects[:2]); !errors.Is(err, core.ErrDuplicateID) {
		t.Errorf("duplicate batch insert: %v, want ErrDuplicateID", err)
	}
	if err := b.InsertBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestSearchEarlyExitAndErrors(t *testing.T) {
	e, err := New(testConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	r := geom.NewRect(2)
	r.Max[0], r.Max[1] = 1, 1
	for id := uint32(0); id < 100; id++ {
		if err := e.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.NewRect(2)
	q.Max[0], q.Max[1] = 1, 1
	seen := 0
	if err := e.Search(q, geom.Intersects, func(uint32) bool { seen++; return seen < 5 }); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("early exit emitted %d, want 5", seen)
	}
	bad := geom.NewRect(3)
	if err := e.Search(bad, geom.Intersects, func(uint32) bool { return true }); err == nil {
		t.Error("dimensionality mismatch must propagate from the fan-out")
	}
	n, err := e.Count(q, geom.Intersects)
	if err != nil || n != 100 {
		t.Errorf("Count=%d,%v, want 100", n, err)
	}
}

func TestMeterAggregation(t *testing.T) {
	e, err := New(testConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for id := uint32(0); id < 400; id++ {
		if err := e.Insert(id, randRect(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.NewRect(2)
	q.Max[0], q.Max[1] = 1, 1
	const queries = 7
	for i := 0; i < queries; i++ {
		if _, err := e.SearchIDsAppend(nil, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Meter()
	if m.Queries != queries {
		t.Errorf("Meter.Queries=%d, want %d logical queries (not shards x queries)", m.Queries, queries)
	}
	// Every object intersects the full-domain query: total verification
	// work across shards must equal a single index's.
	if m.ObjectsVerified != int64(queries)*400 {
		t.Errorf("ObjectsVerified=%d, want %d", m.ObjectsVerified, queries*400)
	}
	e.ResetMeter()
	if m := e.Meter(); m.Queries != 0 || m.ObjectsVerified != 0 {
		t.Errorf("after ResetMeter: %+v", m)
	}
}

func TestSaveLoadDir(t *testing.T) {
	dims := 3
	e, err := New(testConfig(dims, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for id := uint32(0); id < 800; id++ {
		if err := e.Insert(id, randRect(rng, dims)); err != nil {
			t.Fatal(err)
		}
	}
	q := randRect(rng, dims)
	want, err := e.SearchIDsAppend(nil, q, geom.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := e.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// The saved shard count wins over the configured default.
	loaded, err := LoadDir(dir, Config{Shards: 16, Core: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 4 {
		t.Errorf("loaded %d shards, want the saved 4", loaded.Shards())
	}
	if loaded.Len() != e.Len() || loaded.Dims() != dims {
		t.Errorf("loaded Len=%d Dims=%d, want %d/%d", loaded.Len(), loaded.Dims(), e.Len(), dims)
	}
	got, err := loaded.SearchIDsAppend(nil, q, geom.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	sortIDs(want)
	sortIDs(got)
	if !equalIDs(want, got) {
		t.Error("loaded engine answers differ from saved engine")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Error(err)
	}

	if _, err := LoadDir(dir, Config{Core: core.Config{Dims: dims + 1}}); err == nil {
		t.Error("dims mismatch must fail")
	}

	// Corrupting the manifest must be detected.
	man := filepath.Join(dir, manifestName)
	buf, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	buf[8] ^= 0xFF
	if err := os.WriteFile(man, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, Config{}); err == nil {
		t.Error("corrupt manifest must fail to load")
	}
	if _, err := LoadDir(t.TempDir(), Config{}); err == nil {
		t.Error("missing manifest must fail to load")
	}
}

func TestSaveDirReplacesPreviousGeneration(t *testing.T) {
	dims := 2
	dir := filepath.Join(t.TempDir(), "db")
	wide, err := New(testConfig(dims, 8))
	if err != nil {
		t.Fatal(err)
	}
	r := geom.NewRect(dims)
	r.Max[0], r.Max[1] = 1, 1
	for id := uint32(0); id < 64; id++ {
		if err := wide.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wide.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	narrow, err := New(testConfig(dims, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.Insert(1, r); err != nil {
		t.Fatal(err)
	}
	if err := narrow.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*.acdb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Errorf("directory holds %d segments after narrower save, want 2: %v", len(segs), segs)
	}
	loaded, err := LoadDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 2 || loaded.Len() != 1 {
		t.Errorf("reloaded shards=%d len=%d, want 2/1", loaded.Shards(), loaded.Len())
	}
}

func sortIDs(ids []uint32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

func equalIDs(a, b []uint32) bool {
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

// TestSearchIDsAppendPooled checks the pooled fan-out merge: the append
// variant returns exactly the Search answer in the same order, reuses the
// caller's buffer, and stays correct when many goroutines cycle buffers
// through the engine's pool concurrently.
func TestSearchIDsAppendPooled(t *testing.T) {
	e, err := New(testConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for id := uint32(0); id < 3000; id++ {
		if err := e.Insert(id, randRect(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]geom.Rect, 32)
	for i := range queries {
		queries[i] = randRect(rng, 4)
	}
	// Sequential agreement plus buffer reuse.
	buf := make([]uint32, 0, 64)
	for _, q := range queries {
		want, err := e.SearchIDsAppend(nil, q, geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		buf, err = e.SearchIDsAppend(buf, q, geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(want) {
			t.Fatalf("append returned %d ids, Search %d", len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("merge order differs at %d: %d vs %d", i, buf[i], want[i])
			}
		}
	}
	// Concurrent pool cycling: every goroutine must see its own complete
	// answer even though merge buffers are shared through the pool. The
	// ongoing queries trigger reorganizations, which may legally reorder
	// answers — compare id sets, not emission order.
	wants := make([][]uint32, len(queries))
	for i, q := range queries {
		wants[i], _ = e.SearchIDsAppend(nil, q, geom.Intersects)
		sort.Slice(wants[i], func(a, b int) bool { return wants[i][a] < wants[i][b] })
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			var local []uint32
			for k := 0; k < 40; k++ {
				i := (g*13 + k) % len(queries)
				var err error
				local, err = e.SearchIDsAppend(local[:0], queries[i], geom.Intersects)
				if err != nil {
					done <- err
					return
				}
				sort.Slice(local, func(a, b int) bool { return local[a] < local[b] })
				if len(local) != len(wants[i]) {
					done <- errors.New("concurrent append lost or duplicated ids")
					return
				}
				for j := range local {
					if local[j] != wants[i][j] {
						//acvet:ignore corrupterr test assertion message, not an integrity classification
						done <- errors.New("concurrent append corrupted an answer")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentFanoutStats pins per-shard statistics accounting under the
// shared-lock query path: every logical selection visits every shard, so
// after all deferred publications drain, each shard's statistics window
// must count every query exactly once — none lost to concurrency, none
// double-applied — and the engine meter must agree.
func TestConcurrentFanoutStats(t *testing.T) {
	const (
		dims    = 4
		queries = 160
		workers = 8
	)
	cfg := testConfig(dims, 4)
	cfg.Core.ReorgEvery = 1 << 30 // keep every query inside one epoch
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for id := uint32(0); id < 2000; id++ {
		if err := e.Insert(id, randRect(rng, dims)); err != nil {
			t.Fatal(err)
		}
	}
	e.ResetMeter()
	qs := make([]geom.Rect, queries)
	for i := range qs {
		qs[i] = randRect(rng, dims)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				if _, err := e.Count(qs[i], geom.Intersects); err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Force the remaining deferred publications through the exclusive path.
	for _, s := range e.shards {
		s.mu.Lock()
		s.ix.DrainStats()
		s.mu.Unlock()
	}
	for i, s := range e.shards {
		if w := s.ix.StatsWindow(); w != queries {
			t.Errorf("shard %d: statistics window %g, want %d", i, w, queries)
		}
		if q := s.ix.Meter().Queries; q != queries {
			t.Errorf("shard %d: meter queries %d, want %d", i, q, queries)
		}
	}
	if m := e.Meter(); m.Queries != queries {
		t.Errorf("engine meter queries %d, want %d", m.Queries, queries)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
