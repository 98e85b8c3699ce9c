package accluster

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// engines under the concurrent-read contract: shared-lock searches,
// exclusive mutations.
func concurrentEngines(t *testing.T, dims int, opts ...Option) map[string]Index {
	t.Helper()
	ac, err := NewAdaptive(dims, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(dims, append([]Option{WithShards(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ac.Close(); sh.Close() })
	return map[string]Index{"adaptive": ac, "sharded": sh}
}

// TestConcurrentReadersStress hammers both engines with reader goroutines
// racing concurrent inserts, deletes and reorganization — the
// interleavings the shared-lock query path must survive. Run under -race in
// CI (the dedicated multi-reader job repeats it).
func TestConcurrentReadersStress(t *testing.T) {
	const dims = 4
	for name, ix := range concurrentEngines(t, dims, WithReorgEvery(25)) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			for id := uint32(0); id < 4000; id++ {
				if err := ix.Insert(id, randomRect(rng, dims, 0.3)); err != nil {
					t.Fatal(err)
				}
			}
			var (
				readers, writers sync.WaitGroup
				stop             atomic.Bool
			)
			// Writers: churn inserts/updates/deletes in a disjoint id range
			// until the readers finish.
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					base := uint32(10000 + w*10000)
					for i := uint32(0); !stop.Load(); i++ {
						id := base + i%500
						switch i % 3 {
						case 0:
							_ = ix.Insert(id, randomRect(rng, dims, 0.2))
						case 1:
							_ = ix.Update(id, randomRect(rng, dims, 0.2))
						default:
							ix.Delete(id)
						}
					}
				}(w)
			}
			// Readers: searches, counts and gets racing the writers.
			for r := 0; r < 6; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(200 + r)))
					var buf []uint32
					for i := 0; i < 400; i++ {
						q := randomRect(rng, dims, 0.3)
						switch i % 3 {
						case 0:
							out, err := ix.SearchIDsAppend(buf[:0], q, Intersects)
							if err != nil {
								t.Errorf("reader %d: %v", r, err)
								return
							}
							buf = out
						case 1:
							if _, err := ix.Count(q, ContainedBy); err != nil {
								t.Errorf("reader %d: %v", r, err)
								return
							}
						default:
							ix.Get(uint32(rng.Intn(4000)))
						}
					}
				}(r)
			}
			readers.Wait()
			stop.Store(true)
			writers.Wait()
			type checker interface{ CheckInvariants() error }
			if err := ix.(checker).CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentDeterminism pins exactness of the shared-lock query path:
// with the database frozen, the same query set run by 8 goroutines must
// return exactly the ID sets the serial run returns, on both engines.
func TestConcurrentDeterminism(t *testing.T) {
	const dims = 5
	for name, ix := range concurrentEngines(t, dims, WithReorgEvery(50)) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			for id := uint32(0); id < 3000; id++ {
				if err := ix.Insert(id, randomRect(rng, dims, 0.3)); err != nil {
					t.Fatal(err)
				}
			}
			// Converge a clustering so searches traverse real structure.
			for i := 0; i < 300; i++ {
				if _, err := ix.Count(randomRect(rng, dims, 0.25), Intersects); err != nil {
					t.Fatal(err)
				}
			}
			qs := make([]Rect, 48)
			rels := make([]Relation, len(qs))
			want := make([][]uint32, len(qs))
			for i := range qs {
				qs[i] = randomRect(rng, dims, 0.35)
				rels[i] = Relation(i % 3)
				ids, err := ix.SearchIDs(qs[i], rels[i])
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
					for i := range qs {
						got, err := ix.SearchIDs(qs[i], rels[i])
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
								t.Errorf("worker %d query %d: mismatch at %d", w, i, k)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
