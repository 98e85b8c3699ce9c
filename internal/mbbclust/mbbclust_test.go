package mbbclust

import (
	"math/rand"
	"sort"
	"testing"

	"accluster/internal/cost"
	"accluster/internal/geom"
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

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dims: 0}); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := New(Config{Dims: 2, DivisionFactor: 1}); err == nil {
		t.Error("f=1 must fail")
	}
	if _, err := New(Config{Dims: 2, Decay: 2}); err == nil {
		t.Error("decay=2 must fail")
	}
	ix, err := New(Config{Dims: 2})
	if err != nil || ix.Dims() != 2 || ix.Clusters() != 1 {
		t.Fatalf("New: %v", err)
	}
}

func TestCRUD(t *testing.T) {
	ix, _ := New(Config{Dims: 3})
	rng := rand.New(rand.NewSource(1))
	rects := map[uint32]geom.Rect{}
	for id := uint32(0); id < 400; id++ {
		r := randomRect(rng, 3, 0.3)
		rects[id] = r
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Insert(0, rects[0]); err == nil {
		t.Error("duplicate must fail")
	}
	for id, want := range rects {
		got, ok := ix.Get(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("Get(%d)", id)
		}
	}
	for id := uint32(0); id < 100; id++ {
		if !ix.Delete(id) {
			t.Fatalf("Delete(%d)", id)
		}
		delete(rects, id)
	}
	if ix.Delete(5) {
		t.Error("double delete")
	}
	if ix.Len() != 300 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestDifferentialWithReorganization(t *testing.T) {
	ix, _ := New(Config{Dims: 4, ReorgEvery: 20})
	rng := rand.New(rand.NewSource(2))
	type obj struct {
		id uint32
		r  geom.Rect
	}
	var objs []obj
	for id := uint32(0); id < 1200; id++ {
		r := randomRect(rng, 4, 0.3)
		objs = append(objs, obj{id, r})
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 120; qi++ {
		q := randomRect(rng, 4, 0.4)
		rel := geom.Relation(qi % 3)
		var got []uint32
		if err := ix.Search(q, rel, func(id uint32) bool { got = append(got, id); return true }); err != nil {
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
			t.Fatalf("query %d rel %v: %d results, want %d (clusters=%d)", qi, rel, len(got), len(want), ix.Clusters())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d rel %v: mismatch", qi, rel)
			}
		}
	}
}

func TestClustersFormForPointData(t *testing.T) {
	// With small objects (near points), region grouping works and
	// clusters should materialize under selective queries. The paper's
	// period of 100 queries gives a horizon of 200: at 2 dims a
	// relocation costs about 50·C, which a 25-query period's horizon of
	// 50 can never earn back.
	ix, _ := New(Config{Dims: 2, ReorgEvery: 100})
	rng := rand.New(rand.NewSource(3))
	for id := uint32(0); id < 4000; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		q := randomRect(rng, 2, 0.05)
		if _, err := ix.Count(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Clusters() < 2 {
		t.Errorf("expected clusters for point-like data, got %d", ix.Clusters())
	}
	if ix.Splits() == 0 {
		t.Error("no splits recorded")
	}
}

func TestStraddlersStayCoarse(t *testing.T) {
	// The structural weakness: objects spanning the domain center cannot
	// descend on that dimension. With all objects straddling 0.5 in dim
	// 0, any materialized cluster still holds them via other dims, but a
	// 1-dimensional space cannot cluster at all.
	ix, _ := New(Config{Dims: 1, ReorgEvery: 25})
	for id := uint32(0); id < 2000; id++ {
		r := geom.Rect{Min: []float32{0.4}, Max: []float32{0.6}}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		q := geom.Rect{Min: []float32{0.45}, Max: []float32{0.46}}
		if _, err := ix.Count(q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Clusters() != 1 {
		t.Errorf("straddling objects must stay in the root, clusters=%d", ix.Clusters())
	}
}

func TestMeterAndReset(t *testing.T) {
	ix, _ := New(Config{Dims: 2})
	rng := rand.New(rand.NewSource(4))
	for id := uint32(0); id < 100; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Count(randomRect(rng, 2, 0.4), geom.Intersects); err != nil {
		t.Fatal(err)
	}
	if m := ix.Meter(); m.Queries != 1 || m.Explorations != 1 {
		t.Fatalf("meter: %v", m)
	}
	ix.ResetMeter()
	if ix.Meter() != (cost.Meter{}) {
		t.Error("ResetMeter")
	}
	_ = ix.Merges()
}

func TestSearchValidation(t *testing.T) {
	ix, _ := New(Config{Dims: 2})
	if err := ix.Search(geom.Point([]float32{0.1}), geom.Intersects, func(uint32) bool { return true }); err == nil {
		t.Error("wrong dims must fail")
	}
	if err := ix.Search(geom.Point([]float32{0.1, 0.2}), geom.Relation(9), func(uint32) bool { return true }); err == nil {
		t.Error("bad relation must fail")
	}
	if err := ix.Insert(1, geom.Point([]float32{0.5})); err == nil {
		t.Error("wrong insert dims must fail")
	}
	if err := ix.Insert(1, geom.Rect{Min: []float32{0.9, 0.9}, Max: []float32{0.1, 0.1}}); err == nil {
		t.Error("invalid rect must fail")
	}
}
