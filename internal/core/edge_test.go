package core

import (
	"math/rand"
	"testing"

	"accluster/internal/cost"
	"accluster/internal/geom"
)

func TestDrainAndRefill(t *testing.T) {
	// Empty the index completely after clustering, then refill: clusters
	// must remain structurally sound and answers exact.
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 15})
	rng := rand.New(rand.NewSource(51))
	for id := uint32(0); id < 1000; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := searchIDs(ix, randomRect(rng, 2, 0.1), geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(0); id < 1000; id++ {
		if !ix.Delete(id) {
			t.Fatalf("delete %d", id)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after drain", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries on the drained index are empty but well-defined; another
	// reorganization round must clean up empty clusters eventually.
	if n, err := ix.CountRead(randomRect(rng, 2, 0.5), geom.Intersects); err != nil || n != 0 {
		t.Fatalf("drained count = %d, %v", n, err)
	}
	for i := 0; i < 60; i++ {
		if _, err := searchIDs(ix, randomRect(rng, 2, 0.5), geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	// Refill.
	for id := uint32(5000); id < 6000; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 1000 {
		t.Fatalf("Len = %d after refill", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStopKeepsStatisticsConsistent(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2, ReorgEvery: 10})
	rng := rand.New(rand.NewSource(52))
	for id := uint32(0); id < 800; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	for i := 0; i < 50; i++ {
		// Stop after the first hit every time.
		err := ix.SearchRead(full, geom.Intersects, func(uint32) bool { return false })
		ix.DrainStats()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Counts must still be exact afterwards.
	n, err := ix.CountRead(full, geom.Intersects)
	if err != nil || n != 800 {
		t.Fatalf("count after early stops: %d, %v", n, err)
	}
}

func TestDegenerateObjectsAtDomainBoundary(t *testing.T) {
	// Points at exactly 0 and 1, and the full-domain object, must be
	// storable and retrievable through any amount of reorganization.
	ix := mustNew(t, Config{Dims: 3, ReorgEvery: 5})
	special := []geom.Rect{
		geom.Point([]float32{0, 0, 0}),
		geom.Point([]float32{1, 1, 1}),
		{Min: []float32{0, 0, 0}, Max: []float32{1, 1, 1}},
		{Min: []float32{0, 0.5, 1}, Max: []float32{0, 0.5, 1}},
	}
	for i, r := range special {
		if err := ix.Insert(uint32(i), r); err != nil {
			t.Fatalf("special %d: %v", i, err)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for id := uint32(100); id < 1100; id++ {
		if err := ix.Insert(id, randomRect(rng, 3, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := searchIDs(ix, randomRect(rng, 3, 0.2), geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	// The full-domain query must return everything, including the
	// boundary objects.
	all := geom.Rect{Min: []float32{0, 0, 0}, Max: []float32{1, 1, 1}}
	n, err := ix.CountRead(all, geom.Intersects)
	if err != nil || n != 1004 {
		t.Fatalf("full-domain count: %d, %v", n, err)
	}
	// Point-enclosing at the corner finds the objects covering it.
	m, err := ix.CountRead(geom.Point([]float32{1, 1, 1}), geom.Encloses)
	if err != nil || m < 2 { // the corner point itself + full-domain object
		t.Fatalf("corner enclosing count: %d, %v", m, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDecayOneNeverForgets(t *testing.T) {
	ix := mustNew(t, Config{Dims: 1, ReorgEvery: 10, Decay: 1})
	for id := uint32(0); id < 100; id++ {
		r := geom.Rect{Min: []float32{0.4}, Max: []float32{0.5}}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0}, Max: []float32{1}}
	for i := 0; i < 40; i++ {
		if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
			t.Fatal(err)
		}
	}
	// With decay 1 the window keeps the full history.
	if ix.window != 40 {
		t.Errorf("window = %g, want 40", ix.window)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskScenarioFormsCoarserClusters(t *testing.T) {
	build := func(p cost.Params) *Index {
		ix := mustNew(t, Config{Dims: 4, Params: p, ReorgEvery: 25})
		rng := rand.New(rand.NewSource(54))
		for id := uint32(0); id < 6000; id++ {
			if err := ix.Insert(id, randomRect(rng, 4, 0.1)); err != nil {
				t.Fatal(err)
			}
		}
		qrng := rand.New(rand.NewSource(55))
		for i := 0; i < 500; i++ {
			if _, err := searchIDs(ix, randomRect(qrng, 4, 0.05), geom.Intersects); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	mem := build(cost.Memory())
	dsk := build(cost.Disk())
	if mem.Clusters() <= dsk.Clusters() {
		t.Errorf("memory clustering (%d) should be finer than disk clustering (%d)",
			mem.Clusters(), dsk.Clusters())
	}
}
