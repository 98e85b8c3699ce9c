package core

// Differential test for the columnar block-scan query path: on a randomized
// workload of inserts, deletes, updates and queries across all three
// relations, Search, SearchIDs, SearchIDsAppend and Count must return
// exactly the result sets of a brute-force shadow model, and the meter
// counters pinned by the pre-columnar implementation (Queries, Explorations,
// Results) must match values recomputed from first principles: Explorations
// is the number of clusters whose signature matches the query (signature
// pruning is unchanged by the storage layout) and Results is the total
// number of qualifying objects.

import (
	"math/rand"
	"sort"
	"testing"

	"accluster/internal/geom"
)

// shadow is the brute-force reference: a plain id→rectangle map.
type shadow map[uint32]geom.Rect

func (s shadow) search(q geom.Rect, rel geom.Relation) []uint32 {
	var out []uint32
	for id, r := range s {
		if r.Matches(rel, q) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedCopy(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

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

func TestSearchDifferential(t *testing.T) {
	for _, dims := range []int{2, 8} {
		ix := mustNew(t, Config{Dims: dims, ReorgEvery: 50})
		ref := shadow{}
		rng := rand.New(rand.NewSource(int64(1000 + dims)))
		rels := []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses}
		nextID := uint32(0)
		var appendBuf []uint32
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert
				r := randomRect(rng, dims, 0.4)
				if err := ix.Insert(nextID, r); err != nil {
					t.Fatal(err)
				}
				ref[nextID] = r
				nextID++
			case op == 4 && len(ref) > 0: // delete a random live id
				for id := range ref {
					if !ix.Delete(id) {
						t.Fatalf("delete %d: not found", id)
					}
					delete(ref, id)
					break
				}
			case op == 5 && len(ref) > 0: // update a random live id
				for id := range ref {
					r := randomRect(rng, dims, 0.4)
					if err := ix.Update(id, r); err != nil {
						t.Fatal(err)
					}
					ref[id] = r
					break
				}
			default: // query
				q := randomRect(rng, dims, 1)
				rel := rels[rng.Intn(len(rels))]

				// Recompute the exploration count the pre-columnar
				// implementation would report: clusters whose
				// signature matches the query.
				wantExplored := int64(0)
				wantChecked := int64(0)
				ix.VisitClusters(func(c *Cluster) {
					wantChecked++
					if c.Signature().MatchesQuery(q, rel) {
						wantExplored++
					}
				})
				want := ref.search(q, rel)

				before := ix.Meter()
				got, err := searchIDs(ix, q, rel)
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(sortedCopy(got), want) {
					t.Fatalf("dims=%d step=%d rel=%v: SearchIDs mismatch (%d vs %d ids)", dims, step, rel, len(got), len(want))
				}
				d := ix.Meter().Sub(before)
				if d.Queries != 1 {
					t.Fatalf("Queries delta = %d", d.Queries)
				}
				if d.SigChecks != wantChecked {
					t.Fatalf("dims=%d step=%d: SigChecks %d, want %d", dims, step, d.SigChecks, wantChecked)
				}
				if d.Explorations != wantExplored {
					t.Fatalf("dims=%d step=%d rel=%v: Explorations %d, want %d", dims, step, rel, d.Explorations, wantExplored)
				}
				if d.Results != int64(len(want)) {
					t.Fatalf("dims=%d step=%d rel=%v: Results %d, want %d", dims, step, rel, d.Results, len(want))
				}

				// The three retrieval surfaces agree with each other.
				appendBuf = appendBuf[:0]
				appendBuf, err = ix.SearchIDsAppendRead(appendBuf, q, rel)
				ix.DrainStats()
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(sortedCopy(appendBuf), want) {
					t.Fatalf("dims=%d step=%d rel=%v: SearchIDsAppend mismatch", dims, step, rel)
				}
				n, err := ix.CountRead(q, rel)
				ix.DrainStats()
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("dims=%d step=%d rel=%v: Count %d, want %d", dims, step, rel, n, len(want))
				}
				var emitted []uint32
				err = ix.SearchRead(q, rel, func(id uint32) bool { emitted = append(emitted, id); return true })
				ix.DrainStats()
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(sortedCopy(emitted), want) {
					t.Fatalf("dims=%d step=%d rel=%v: Search emit mismatch", dims, step, rel)
				}

				// Early-stop semantics: Results counts emitted
				// objects up to and including the one that stopped,
				// and the cost meter charges only clusters explored
				// before the consumer gave up — clusters whose
				// members were never verified add no Seeks,
				// Explorations or transferred bytes (their
				// clustering statistics are still updated; see
				// TestEarlyStopAccounting for the pinned split).
				if len(want) > 1 {
					stopAfter := 1 + rng.Intn(len(want)-1)
					// The queries above may have triggered a
					// reorganization; recount the matching
					// clusters against the current state.
					wantExplored = 0
					ix.VisitClusters(func(c *Cluster) {
						if c.Signature().MatchesQuery(q, rel) {
							wantExplored++
						}
					})
					before = ix.Meter()
					seen := 0
					err := ix.SearchRead(q, rel, func(uint32) bool { seen++; return seen < stopAfter })
					ix.DrainStats()
					if err != nil {
						t.Fatal(err)
					}
					d = ix.Meter().Sub(before)
					if seen != stopAfter || d.Results != int64(stopAfter) {
						t.Fatalf("dims=%d step=%d: early stop emitted %d (Results %d), want %d", dims, step, seen, d.Results, stopAfter)
					}
					if d.Explorations < 1 || d.Explorations > wantExplored {
						t.Fatalf("dims=%d step=%d: early stop Explorations %d, want within [1,%d]", dims, step, d.Explorations, wantExplored)
					}
					if d.Seeks != d.Explorations {
						t.Fatalf("dims=%d step=%d: early stop Seeks %d != Explorations %d", dims, step, d.Seeks, d.Explorations)
					}
				}
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReentrantQueryPanics pins the scratch-reuse contract: an emit callback
// querying the same index as its single owner (read, then DrainStats) must
// panic instead of silently corrupting the in-flight search.
func TestReentrantQueryPanics(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	rng := rand.New(rand.NewSource(1))
	for id := uint32(0); id < 10; id++ {
		if err := ix.Insert(id, randomRect(rng, 2, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("reentrant query did not panic")
		}
	}()
	_ = ix.SearchRead(q, geom.Intersects, func(uint32) bool {
		_, _ = searchIDs(ix, q, geom.Intersects)
		return true
	})
}
