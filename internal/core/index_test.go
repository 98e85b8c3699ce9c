package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"accluster/internal/cost"
	"accluster/internal/geom"
)

func mustNew(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return ix
}

// searchIDs runs one query the way a single owner does — the read phase,
// then DrainStats, which applies the query's statistics record and takes one
// budgeted reorganization step — and returns its answer.
func searchIDs(ix *Index, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids, err := ix.SearchIDsAppendRead(nil, q, rel)
	ix.DrainStats()
	return ids, err
}

func randomRect(rng *rand.Rand, dims int, maxSize float32) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dims: 0}); err == nil {
		t.Error("Dims=0 must fail")
	}
	if _, err := New(Config{Dims: 2, DivisionFactor: 1}); err == nil {
		t.Error("DivisionFactor=1 must fail")
	}
	if _, err := New(Config{Dims: 2, ReorgEvery: -5}); err == nil {
		t.Error("negative ReorgEvery must fail")
	}
	if _, err := New(Config{Dims: 2, Decay: 1.5}); err == nil {
		t.Error("decay > 1 must fail")
	}
	// Every cost must be finite and ≥ 0; all-zero costs are a free machine.
	for name, mut := range map[string]func(p *cost.Params){
		"NaN SigCheckMS":           func(p *cost.Params) { p.SigCheckMS = math.NaN() },
		"+Inf ExploreSetupMS":      func(p *cost.Params) { p.ExploreSetupMS = math.Inf(1) },
		"negative SeekMS":          func(p *cost.Params) { p.SeekMS = -1 },
		"negative VerifyMSPerByte": func(p *cost.Params) { p.VerifyMSPerByte = -1e-6 },
		"-Inf TransferMSPerByte":   func(p *cost.Params) { p.TransferMSPerByte = math.Inf(-1) },
	} {
		p := cost.Memory()
		mut(&p)
		if _, err := New(Config{Dims: 2, Params: p}); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
	if _, err := New(Config{Dims: 2, Params: cost.Params{Name: "free"}}); err != nil {
		t.Errorf("all-zero costs must stay valid: %v", err)
	}
	ix := mustNew(t, Config{Dims: 2})
	cfg := ix.Config()
	if cfg.DivisionFactor != 4 || cfg.ReorgEvery != 100 || cfg.Decay != 0.5 || cfg.Params.Name != "memory" {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3})
	if ix.Len() != 0 || ix.Clusters() != 1 || ix.Dims() != 3 {
		t.Fatalf("empty index: len=%d clusters=%d", ix.Len(), ix.Clusters())
	}
	ids, err := searchIDs(ix, geom.Point([]float32{0.5, 0.5, 0.5}), geom.Encloses)
	if err != nil || len(ids) != 0 {
		t.Fatalf("query on empty index: ids=%v err=%v", ids, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertValidation(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	r := geom.Rect{Min: []float32{0.1, 0.1}, Max: []float32{0.2, 0.2}}
	if err := ix.Insert(1, r); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(1, r); err == nil {
		t.Error("duplicate id must fail")
	}
	if err := ix.Insert(2, geom.Point([]float32{0.5})); err == nil {
		t.Error("wrong dimensionality must fail")
	}
	bad := geom.Rect{Min: []float32{0.5, 0.5}, Max: []float32{0.4, 0.6}}
	if err := ix.Insert(3, bad); err == nil {
		t.Error("inverted rectangle must fail")
	}
}

func TestInsertGetDelete(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	rng := rand.New(rand.NewSource(42))
	rects := make(map[uint32]geom.Rect)
	for id := uint32(0); id < 500; id++ {
		r := randomRect(rng, 2, 0.3)
		rects[id] = r
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d, want 500", ix.Len())
	}
	for id, want := range rects {
		got, ok := ix.Get(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("Get(%d) = %v,%v want %v", id, got, ok, want)
		}
	}
	if _, ok := ix.Get(9999); ok {
		t.Error("Get of absent id must report false")
	}
	// Delete half.
	for id := uint32(0); id < 250; id++ {
		if !ix.Delete(id) {
			t.Fatalf("Delete(%d) = false", id)
		}
	}
	if ix.Delete(0) {
		t.Error("double delete must report false")
	}
	if ix.Len() != 250 {
		t.Fatalf("Len after deletes = %d, want 250", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchValidation(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	if err := ix.SearchRead(geom.Point([]float32{0.5}), geom.Intersects, func(uint32) bool { return true }); err == nil {
		t.Error("wrong query dimensionality must fail")
	}
	if err := ix.SearchRead(geom.Point([]float32{0.5, 0.5}), geom.Relation(7), func(uint32) bool { return true }); err == nil {
		t.Error("invalid relation must fail")
	}
}

// runWorkload inserts objects, runs enough queries to let the clustering
// converge, and returns the queries used.
func runWorkload(t *testing.T, ix *Index, rng *rand.Rand, nObjs, nQueries int, maxObj, maxQry float32) []geom.Rect {
	t.Helper()
	dims := ix.Dims()
	for id := 0; id < nObjs; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, dims, maxObj)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]geom.Rect, nQueries)
	for i := range queries {
		queries[i] = randomRect(rng, dims, maxQry)
		if _, err := searchIDs(ix, queries[i], geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	return queries
}

func TestClusteringFormsAndStaysConsistent(t *testing.T) {
	ix := mustNew(t, Config{Dims: 4, ReorgEvery: 50})
	rng := rand.New(rand.NewSource(7))
	runWorkload(t, ix, rng, 3000, 400, 0.4, 0.2)
	if ix.Clusters() < 2 {
		t.Fatalf("expected clusters to materialize, still %d", ix.Clusters())
	}
	if ix.Splits() == 0 {
		t.Error("no splits recorded")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every object still retrievable.
	for id := uint32(0); id < 3000; id += 97 {
		if _, ok := ix.Get(id); !ok {
			t.Fatalf("object %d lost after reorganization", id)
		}
	}
}

func TestDifferentialAgainstBruteForce(t *testing.T) {
	// The index must return exactly the brute-force answer for every
	// relation, before and after reorganizations.
	for _, dims := range []int{1, 2, 5, 16} {
		rng := rand.New(rand.NewSource(int64(dims) * 31))
		ix := mustNew(t, Config{Dims: dims, ReorgEvery: 25})
		type obj struct {
			id uint32
			r  geom.Rect
		}
		var objs []obj
		for id := uint32(0); id < 1500; id++ {
			r := randomRect(rng, dims, 0.5)
			objs = append(objs, obj{id, r})
			if err := ix.Insert(id, r); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 150; qi++ {
			q := randomRect(rng, dims, 0.6)
			rel := geom.Relation(qi % 3)
			got, err := searchIDs(ix, q, rel)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint32
			for _, o := range objs {
				if o.r.Matches(rel, q) {
					want = append(want, o.id)
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("dims=%d rel=%v query %d: %d results, want %d (clusters=%d)",
					dims, rel, qi, len(got), len(want), ix.Clusters())
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dims=%d rel=%v query %d: result %d differs", dims, rel, qi, i)
				}
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
	}
}

func TestPointEnclosingQueries(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 20})
	rng := rand.New(rand.NewSource(5))
	var objs []geom.Rect
	for id := uint32(0); id < 800; id++ {
		r := randomRect(rng, 3, 0.4)
		objs = append(objs, r)
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		p := geom.Point([]float32{rng.Float32(), rng.Float32(), rng.Float32()})
		got, err := searchIDs(ix, p, geom.Encloses)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range objs {
			if r.Encloses(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("point query %d: %d results, want %d", i, len(got), want)
		}
	}
}

func TestEarlyTermination(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	for id := uint32(0); id < 100; id++ {
		r := geom.Rect{Min: []float32{0.4, 0.4}, Max: []float32{0.6, 0.6}}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	seen := 0
	err := ix.SearchRead(q, geom.Intersects, func(uint32) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("early termination delivered %d results, want 5", seen)
	}
}

func TestDeleteThenQueryConsistency(t *testing.T) {
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 10})
	rng := rand.New(rand.NewSource(19))
	live := make(map[uint32]geom.Rect)
	nextID := uint32(0)
	for round := 0; round < 30; round++ {
		for k := 0; k < 50; k++ {
			r := randomRect(rng, 3, 0.4)
			live[nextID] = r
			if err := ix.Insert(nextID, r); err != nil {
				t.Fatal(err)
			}
			nextID++
		}
		// Delete a random subset.
		for id := range live {
			if rng.Float32() < 0.2 {
				if !ix.Delete(id) {
					t.Fatalf("delete %d failed", id)
				}
				delete(live, id)
			}
		}
		q := randomRect(rng, 3, 0.5)
		got, err := searchIDs(ix, q, geom.Intersects)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range live {
			if r.Intersects(q) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("round %d: %d results, want %d", round, len(got), want)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOnDistributionShift(t *testing.T) {
	// Clusters formed for one query pattern must merge away when the
	// pattern shifts so that they are explored as often as their parent.
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 50, Decay: 0.3, Params: cost.Disk()})
	rng := rand.New(rand.NewSource(23))
	for id := uint32(0); id < 5000; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1: very selective queries in a corner → clusters form.
	for i := 0; i < 600; i++ {
		q := geom.Rect{Min: []float32{0, 0}, Max: []float32{0.05, 0.05}}
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	peak := ix.Clusters()
	if peak < 2 {
		t.Skipf("no clusters formed at phase 1 (clusters=%d)", peak)
	}
	// Phase 2: full-domain queries explore everything → separate
	// clusters stop paying for themselves on disk and merge back.
	for i := 0; i < 1500; i++ {
		q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Merges() == 0 {
		t.Errorf("expected merges after query distribution shift (clusters %d → %d)", peak, ix.Clusters())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccounting(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	rng := rand.New(rand.NewSource(3))
	for id := uint32(0); id < 100; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	n, err := ix.CountRead(q, geom.Intersects)
	if err != nil {
		t.Fatal(err)
	}
	m := ix.Meter()
	if m.Queries != 1 || m.Explorations != 1 || m.Seeks != 1 {
		t.Fatalf("single-cluster query meter: %v", m)
	}
	if m.ObjectsVerified != 100 || m.Results != int64(n) || n != 100 {
		t.Fatalf("verification counts: %v (n=%d)", m, n)
	}
	wantBytes := int64(100) * int64(geom.ObjectBytes(2))
	if m.BytesTransferred != wantBytes {
		t.Fatalf("BytesTransferred = %d, want %d", m.BytesTransferred, wantBytes)
	}
	// The full-domain query satisfies the root signature's variation
	// intervals in every dimension, so the signature-implied column skip
	// proves every object matches without inspecting any member bytes.
	if m.BytesVerified != 0 {
		t.Fatalf("BytesVerified = %d, want 0 (all columns signature-skipped)", m.BytesVerified)
	}
	// A partial query cannot be proven by the signature: the first
	// scanned column inspects all 100 objects (8 bytes per dimension),
	// later columns only the survivors.
	ix.ResetMeter()
	half := geom.Rect{Min: []float32{0, 0}, Max: []float32{0.5, 1}}
	if _, err := ix.CountRead(half, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	m = ix.Meter()
	if m.BytesVerified < 100*8 || m.BytesVerified > 100*2*8 {
		t.Fatalf("BytesVerified = %d, want within [%d,%d]", m.BytesVerified, 100*8, 100*2*8)
	}
	ix.ResetMeter()
	if ix.Meter() != (cost.Meter{}) {
		t.Fatal("ResetMeter must zero counters")
	}
}

func TestInsertPrefersColdClusters(t *testing.T) {
	// After clustering converges under corner queries, a new object that
	// qualifies both for the root and for a cold cluster must go to the
	// cold cluster (Fig. 4: lowest access probability). The paper's
	// period of 100 queries gives a horizon of 200: at 2 dims a relocation
	// costs about 50·C, which a 20-query period's horizon of 40 can never
	// earn back.
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 100})
	rng := rand.New(rand.NewSource(77))
	for id := uint32(0); id < 4000; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0.9, 0.9}, Max: []float32{0.95, 0.95}}
	for i := 0; i < 400; i++ {
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Clusters() < 2 {
		t.Skip("clustering did not materialize under this workload")
	}
	// Insert an object in the opposite corner: must not land in the root
	// if any matching cluster is colder.
	r := geom.Rect{Min: []float32{0.01, 0.01}, Max: []float32{0.02, 0.02}}
	if err := ix.Insert(99999, r); err != nil {
		t.Fatal(err)
	}
	l := ix.loc[99999]
	rootP := ix.prob(ix.root.q)
	chosenP := ix.prob(l.c.q)
	if chosenP > rootP {
		t.Errorf("object placed in cluster with p=%g > root p=%g", chosenP, rootP)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestManualReorganizeIsSafe(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	rng := rand.New(rand.NewSource(9))
	for id := uint32(0); id < 200; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	// No queries yet: reorganization must not corrupt anything.
	ix.Reorganize()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.ReorgRounds() != 1 {
		t.Errorf("ReorgRounds = %d, want 1", ix.ReorgRounds())
	}
}

func TestStatsDecay(t *testing.T) {
	ix := mustNew(t, Config{Dims: 1, ReorgEvery: 10, Decay: 0.5})
	for id := uint32(0); id < 10; id++ {
		r := geom.Rect{Min: []float32{0.1}, Max: []float32{0.2}}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1}}
	q = geom.Rect{Min: []float32{0}, Max: []float32{1}}
	for i := 0; i < 10; i++ {
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	// After the automatic reorganization the window was decayed once:
	// 10 queries * 0.5.
	if ix.window != 5 {
		t.Errorf("window = %g, want 5", ix.window)
	}
	if ix.root.q != 5 {
		t.Errorf("root q = %g, want 5", ix.root.q)
	}
}
