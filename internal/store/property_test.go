package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accluster/internal/core"
	"accluster/internal/geom"
)

// TestPropertyRoundTrip: arbitrary clustered states (random dimensionality,
// workload, churn and query history) survive Save/Load bit-exactly in
// structure and answers.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(8) + 1
		ix, err := core.New(core.Config{Dims: dims, ReorgEvery: rng.Intn(40) + 10})
		if err != nil {
			return false
		}
		n := rng.Intn(2000) + 50
		for id := 0; id < n; id++ {
			if err := ix.Insert(uint32(id), randomRect(rng, dims, 0.5)); err != nil {
				return false
			}
		}
		// Random churn.
		for k := 0; k < n/5; k++ {
			ix.Delete(uint32(rng.Intn(n)))
		}
		for i := 0; i < rng.Intn(150); i++ {
			queryIDs(t, ix, randomRect(rng, dims, 0.3), geom.Intersects)
		}
		dev := NewMemDevice()
		if err := Save(ix, dev); err != nil {
			t.Logf("save: %v", err)
			return false
		}
		back, err := Load(dev, core.Config{Dims: dims})
		if err != nil {
			t.Logf("load: %v", err)
			return false
		}
		if back.Len() != ix.Len() || back.Clusters() != ix.Clusters() {
			return false
		}
		if err := back.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		for i := 0; i < 15; i++ {
			q := randomRect(rng, dims, 0.5)
			rel := geom.Relation(i % 3)
			a, b := queryIDs(t, ix, q, rel), queryIDs(t, back, q, rel)
			if len(a) != len(b) {
				t.Logf("query %d: %d vs %d ids", i, len(a), len(b))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRandomBitFlipsNeverLoadSilently saves a database, flips a random byte
// and requires Load to fail (or, if the flip hit reserved slack bytes inside
// a region, to load the identical object set — the only byte ranges not
// covered by data are still checksummed, so any flip must actually fail).
func TestRandomBitFlipsNeverLoadSilently(t *testing.T) {
	ix := buildIndex(t, 4, 700)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		dev := NewMemDevice()
		if err := Save(ix, dev); err != nil {
			t.Fatal(err)
		}
		size, _ := dev.Size()
		off := rng.Int63n(size)
		if err := dev.Corrupt(off); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dev, core.Config{Dims: 4}); err == nil {
			t.Fatalf("bit flip at offset %d of %d loaded silently", off, size)
		}
	}
}
