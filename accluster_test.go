package accluster

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"accluster/internal/workload"
)

func randomRect(rng *rand.Rand, dims int, maxSize float32) Rect {
	r := NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

func allIndexes(t *testing.T, dims int) map[string]Index {
	t.Helper()
	ac, err := NewAdaptive(dims, WithReorgEvery(30))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSeqScan(dims)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRStar(dims, WithPageSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Index{"adaptive": ac, "seqscan": ss, "rstar": rs}
}

func TestMakeRect(t *testing.T) {
	r, err := MakeRect([]float32{0.1, 0.2}, []float32{0.3, 0.4})
	if err != nil || r.Min[0] != 0.1 || r.Max[1] != 0.4 {
		t.Fatalf("MakeRect: %v, %v", r, err)
	}
	if _, err := MakeRect([]float32{0.1}, []float32{0.3, 0.4}); err == nil {
		t.Error("mismatched bounds must fail")
	}
	if _, err := MakeRect([]float32{0.5}, []float32{0.4}); err == nil {
		t.Error("inverted rect must fail")
	}
	if _, err := MakeRect(nil, nil); err == nil {
		t.Error("empty rect must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRect must panic on invalid input")
		}
	}()
	MustRect([]float32{0.9}, []float32{0.1})
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewAdaptive(0); err == nil {
		t.Error("NewAdaptive(0) must fail")
	}
	if _, err := NewSeqScan(-1); err == nil {
		t.Error("NewSeqScan(-1) must fail")
	}
	if _, err := NewRStar(0); err == nil {
		t.Error("NewRStar(0) must fail")
	}
	if _, err := NewAdaptive(2, WithDivisionFactor(1)); err == nil {
		t.Error("bad division factor must fail")
	}
	// A cost that is NaN, infinite or negative fails every benefit test,
	// so an index built on it would never cluster: every constructor
	// rejects it.
	nan := MemoryScenario()
	nan.SigCheckMS = math.NaN()
	neg := MemoryScenario()
	neg.VerifyMSPerByte = -1e-6
	inf := MemoryScenario()
	inf.ExploreSetupMS = math.Inf(1)
	dir := t.TempDir()
	saved, err := NewSharded(2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := saved.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "adaptive.acdb")
	one, err := NewAdaptive(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{nan, neg, inf} {
		if _, err := NewAdaptive(2, WithScenario(sc)); err == nil {
			t.Errorf("NewAdaptive accepted scenario %+v", sc)
		}
		if _, err := NewSharded(2, WithScenario(sc)); err == nil {
			t.Errorf("NewSharded accepted scenario %+v", sc)
		}
		if _, err := OpenAdaptive(file, WithScenario(sc)); err == nil {
			t.Errorf("OpenAdaptive accepted scenario %+v", sc)
		}
		if _, err := OpenSharded(dir, WithScenario(sc)); err == nil {
			t.Errorf("OpenSharded accepted scenario %+v", sc)
		}
	}
}

func TestIndexesAgree(t *testing.T) {
	const dims = 6
	idx := allIndexes(t, dims)
	rng := rand.New(rand.NewSource(12))
	for id := uint32(0); id < 1000; id++ {
		r := randomRect(rng, dims, 0.4)
		for name, ix := range idx {
			if err := ix.Insert(id, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for qi := 0; qi < 90; qi++ {
		q := randomRect(rng, dims, 0.5)
		rel := Relation(qi % 3)
		results := map[string][]uint32{}
		for name, ix := range idx {
			ids, err := ix.SearchIDs(q, rel)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			results[name] = ids
		}
		want := results["seqscan"]
		for _, name := range []string{"adaptive", "rstar"} {
			got := results[name]
			if len(got) != len(want) {
				t.Fatalf("query %d rel %v: %s returned %d, seqscan %d", qi, rel, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %d rel %v: %s disagrees with seqscan", qi, rel, name)
				}
			}
		}
	}
	// Delete some objects everywhere and re-verify.
	for id := uint32(0); id < 300; id++ {
		for name, ix := range idx {
			if !ix.Delete(id) {
				t.Fatalf("%s: Delete(%d) failed", name, id)
			}
		}
	}
	q := randomRect(rng, dims, 0.5)
	want, _ := idx["seqscan"].Count(q, Intersects)
	for _, name := range []string{"adaptive", "rstar"} {
		got, err := idx[name].Count(q, Intersects)
		if err != nil || got != want {
			t.Fatalf("%s after deletes: %d want %d (%v)", name, got, want, err)
		}
	}
}

func TestStatsAndModeledTime(t *testing.T) {
	ac, _ := NewAdaptive(4)
	rng := rand.New(rand.NewSource(3))
	for id := uint32(0); id < 200; id++ {
		if err := ac.Insert(id, randomRect(rng, 4, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := ac.Count(randomRect(rng, 4, 0.3), Intersects); err != nil {
			t.Fatal(err)
		}
	}
	st := ac.Stats()
	if st.Queries != 10 || st.Objects != 200 || st.Partitions < 1 {
		t.Fatalf("stats: %+v", st)
	}
	mem := st.ModeledMSPerQuery(MemoryScenario())
	dsk := st.ModeledMSPerQuery(DiskScenario())
	if mem <= 0 || dsk <= mem {
		t.Fatalf("modeled times: mem=%g disk=%g", mem, dsk)
	}
	if st.ExploredFraction() <= 0 || st.ExploredFraction() > 1 {
		t.Fatalf("explored fraction %g", st.ExploredFraction())
	}
	if st.VerifiedFraction() <= 0 || st.VerifiedFraction() > 1 {
		t.Fatalf("verified fraction %g", st.VerifiedFraction())
	}
	if st.String() == "" {
		t.Error("Stats.String")
	}
	ac.ResetStats()
	if ac.Stats().Queries != 0 {
		t.Error("ResetStats")
	}
	if (Stats{}).ExploredFraction() != 0 || (Stats{}).VerifiedFraction() != 0 {
		t.Error("zero stats fractions must be 0")
	}
}

func TestAdaptiveExtras(t *testing.T) {
	ac, _ := NewAdaptive(3, WithScenario(DiskScenario()), WithDecay(0.7), WithReorgEvery(10))
	rng := rand.New(rand.NewSource(5))
	for id := uint32(0); id < 2000; id++ {
		if err := ac.Insert(id, randomRect(rng, 3, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		q := MustRect([]float32{0, 0, 0}, []float32{0.02, 0.02, 0.02})
		if _, err := ac.Count(q, Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if ac.ReorgRounds() == 0 {
		t.Error("reorganizations should have run")
	}
	ac.Reorganize()
	if err := ac.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = ac.Clusters()
	_ = ac.Splits()
	_ = ac.Merges()
	if ac.Dims() != 3 {
		t.Error("Dims")
	}
}

func TestRStarExtras(t *testing.T) {
	rs, _ := NewRStar(2, WithPageSize(512))
	rng := rand.New(rand.NewSource(8))
	for id := uint32(0); id < 500; id++ {
		if err := rs.Insert(id, randomRect(rng, 2, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Nodes() < 2 || rs.Height() < 2 {
		t.Errorf("tree too small: nodes=%d height=%d", rs.Nodes(), rs.Height())
	}
	if err := rs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Get(0); !ok {
		t.Error("Get")
	}
	if rs.Dims() != 2 {
		t.Error("Dims")
	}
}

func TestConcurrentUse(t *testing.T) {
	ac, _ := NewAdaptive(3, WithReorgEvery(20))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint32(w) * 10000
			for i := uint32(0); i < 300; i++ {
				r := randomRect(rng, 3, 0.2)
				if err := ac.Insert(base+i, r); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if _, err := ac.Count(randomRect(rng, 3, 0.3), Intersects); err != nil {
						t.Errorf("count: %v", err)
						return
					}
				}
				if i%7 == 6 {
					ac.Delete(base + i - 3)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ac.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadIntegration(t *testing.T) {
	// End-to-end: calibrated queries against a real index should achieve
	// roughly the requested selectivity.
	const dims, n = 8, 4000
	spec := workload.ObjectSpec{Dims: dims, MaxSize: 0.4, Seed: 21}
	og, err := workload.NewObjectGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := NewSeqScan(dims)
	r := NewRect(dims)
	for id := uint32(0); id < n; id++ {
		og.Fill(r)
		if err := ss.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	target := 0.01
	size, achieved, err := workload.CalibrateQuerySize(spec, Intersects, target, 22)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := workload.NewQueryGen(workload.QuerySpec{Dims: dims, Size: size, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := workload.MeasureSelectivity(func(q Rect, rel Relation) (int, error) {
		return ss.Count(q, rel)
	}, qg, Intersects, n, 200)
	if err != nil {
		t.Fatal(err)
	}
	if measured < target/3 || measured > target*3 {
		t.Errorf("measured selectivity %g for target %g (calibrated %g)", measured, target, achieved)
	}
}
