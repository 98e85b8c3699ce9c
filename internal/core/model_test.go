package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"accluster/internal/geom"
)

// TestStatefulModel runs randomized operation sequences (insert, delete,
// search with all relations, forced reorganizations) against a plain map
// model and checks both answer equivalence and the structural invariants.
// This is the package's main correctness property.
func TestStatefulModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(6) + 1
		ix, err := New(Config{
			Dims:           dims,
			ReorgEvery:     rng.Intn(30) + 5,
			DivisionFactor: []int{2, 3, 4}[rng.Intn(3)],
			Decay:          0.25 + rng.Float64()*0.75,
		})
		if err != nil {
			t.Logf("config: %v", err)
			return false
		}
		model := make(map[uint32]geom.Rect)
		nextID := uint32(0)
		for op := 0; op < 600; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // insert
				r := randomRect(rng, dims, 0.5)
				if err := ix.Insert(nextID, r); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				model[nextID] = r
				nextID++
			case k < 7: // delete (possibly absent)
				if len(model) == 0 {
					continue
				}
				var id uint32
				for id = range model {
					break
				}
				if !ix.Delete(id) {
					t.Logf("delete %d failed", id)
					return false
				}
				delete(model, id)
				if ix.Delete(id) {
					t.Log("double delete succeeded")
					return false
				}
			case k < 9: // search
				q := randomRect(rng, dims, 0.6)
				rel := geom.Relation(rng.Intn(3))
				got, err := searchIDs(ix, q, rel)
				if err != nil {
					t.Logf("search: %v", err)
					return false
				}
				var want []uint32
				for id, r := range model {
					if r.Matches(rel, q) {
						want = append(want, id)
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					t.Logf("seed %d op %d: %d results, want %d", seed, op, len(got), len(want))
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d op %d: result set mismatch", seed, op)
						return false
					}
				}
			default: // forced reorganization
				ix.Reorganize()
			}
		}
		if ix.Len() != len(model) {
			t.Logf("size mismatch: %d vs %d", ix.Len(), len(model))
			return false
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSnapshotRestoreProperty checks that snapshot→restore preserves the
// answer sets for arbitrary clustered states.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := rng.Intn(5) + 1
		ix, err := New(Config{Dims: dims, ReorgEvery: 20})
		if err != nil {
			return false
		}
		for id := uint32(0); id < 800; id++ {
			if err := ix.Insert(id, randomRect(rng, dims, 0.4)); err != nil {
				return false
			}
		}
		for i := 0; i < 100; i++ {
			q := randomRect(rng, dims, 0.3)
			if _, err := searchIDs(ix, q, geom.Intersects); err != nil {
				return false
			}
		}
		restored, err := Restore(Config{Dims: dims, ReorgEvery: 20}, ix.Snapshot())
		if err != nil {
			t.Logf("restore: %v", err)
			return false
		}
		if restored.Len() != ix.Len() || restored.Clusters() != ix.Clusters() {
			return false
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Logf("restored invariants: %v", err)
			return false
		}
		for i := 0; i < 20; i++ {
			q := randomRect(rng, dims, 0.5)
			rel := geom.Relation(i % 3)
			a, err1 := searchIDs(ix, q, rel)
			b, err2 := searchIDs(restored, q, rel)
			if err1 != nil || err2 != nil || len(a) != len(b) {
				return false
			}
			sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
