package accluster

// Batch-vs-looped equivalence at the public API: SearchIDsBatch must return
// the same per-query answers as looping SearchIDsAppend on every engine, and
// on the native batch engines (Adaptive, Sharded, Disk) it must charge the
// same per-query CPU statistics — the batch saves passes and seeks, never
// work accounting. The disk differential additionally pins the tentpole's
// I/O claim: a batch costs strictly fewer seeks than its looped equivalent.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func sortedU32(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
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

// batchEngines builds one structurally identical engine pair per engine kind
// from the same insert stream: one serves the batch, the twin serves the
// looped singles, so statistics comparisons are exact.
func batchEngines(t *testing.T, dims, n int, opts ...Option) map[string][2]Index {
	t.Helper()
	mk := func() []Index {
		ac, err := NewAdaptive(dims, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewSharded(dims, append([]Option{WithShards(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		sq, err := NewSeqScan(dims)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewRStar(dims)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ac.Close(); sh.Close() })
		return []Index{ac, sh, sq, rs}
	}
	batch, loop := mk(), mk()
	rng := rand.New(rand.NewSource(int64(17 + dims)))
	for id := 0; id < n; id++ {
		r := randomRect(rng, dims, 0.3)
		for _, ix := range batch {
			if err := ix.Insert(uint32(id), r); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range loop {
			if err := ix.Insert(uint32(id), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := []string{"adaptive", "sharded", "seqscan", "rstar"}
	out := make(map[string][2]Index, len(names))
	for i, name := range names {
		out[name] = [2]Index{batch[i], loop[i]}
	}
	return out
}

// TestSearchIDsBatchAllEngines pins batch answers against looped singles on
// every Index implementation, and — on the engines with a native batch plane
// — the exact per-query work accounting.
func TestSearchIDsBatchAllEngines(t *testing.T) {
	const dims = 4
	// A huge reorganization period freezes the adaptive structure, so the
	// batch and looped twins stay identical and comparisons are exact (the
	// core-level differential covers epoch boundaries inside a batch).
	engines := batchEngines(t, dims, 3000, WithReorgEvery(1<<30))
	native := map[string]bool{"adaptive": true, "sharded": true}
	for name, pair := range engines {
		t.Run(name, func(t *testing.T) {
			bx, lx := pair[0], pair[1]
			rng := rand.New(rand.NewSource(33))
			var dst *BatchResult
			var single []uint32
			for _, nq := range []int{1, 4, 17, 64} {
				for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
					qs := make([]Rect, nq)
					for i := range qs {
						if rel == Encloses {
							p := make([]float32, dims)
							for d := range p {
								p[d] = rng.Float32()
							}
							qs[i] = Point(p)
						} else {
							qs[i] = randomRect(rng, dims, 1)
						}
					}
					b0, l0 := bx.Stats(), lx.Stats()
					var err error
					dst, err = bx.SearchIDsBatch(dst, qs, rel)
					if err != nil {
						t.Fatal(err)
					}
					if dst.Queries() != nq {
						t.Fatalf("batch reports %d queries, want %d", dst.Queries(), nq)
					}
					for i, q := range qs {
						single, err = lx.SearchIDsAppend(single[:0], q, rel)
						if err != nil {
							t.Fatal(err)
						}
						if !equalU32(dst.IDs(i), single) {
							t.Fatalf("nq=%d rel=%v query %d: batch %d ids, looped %d", nq, rel, i, len(dst.IDs(i)), len(single))
						}
					}
					if native[name] {
						b1, l1 := bx.Stats(), lx.Stats()
						bd := [6]int64{b1.Queries - b0.Queries, b1.PartitionsChecked - b0.PartitionsChecked,
							b1.PartitionsExplored - b0.PartitionsExplored, b1.ObjectsVerified - b0.ObjectsVerified,
							b1.BytesVerified - b0.BytesVerified, b1.Results - b0.Results}
						ld := [6]int64{l1.Queries - l0.Queries, l1.PartitionsChecked - l0.PartitionsChecked,
							l1.PartitionsExplored - l0.PartitionsExplored, l1.ObjectsVerified - l0.ObjectsVerified,
							l1.BytesVerified - l0.BytesVerified, l1.Results - l0.Results}
						if bd != ld {
							t.Fatalf("nq=%d rel=%v: stats delta mismatch:\nbatch  %v\nlooped %v", nq, rel, bd, ld)
						}
					}
				}
			}
		})
	}
}

// TestSearchIDsBatchPointQueries pins the point-batch fast path: a batch of
// degenerate (Min == Max) rectangles takes the sorted binary-search kernel,
// whose per-query matches must still equal the looped singles for every
// relation — including ContainedBy, whose membership interval [bLo,aHi] can
// be empty. Mixed point/rectangle batches and batches holding a NaN
// coordinate must fall back to the general kernel with identical answers (a
// NaN coordinate matches nothing, exactly as it does looped).
func TestSearchIDsBatchPointQueries(t *testing.T) {
	const dims = 4
	engines := batchEngines(t, dims, 2000, WithReorgEvery(1<<30))
	native := map[string]bool{"adaptive": true, "sharded": true}
	point := func(rng *rand.Rand) Rect {
		p := make([]float32, dims)
		for d := range p {
			p[d] = rng.Float32()
		}
		return Point(p)
	}
	for name, pair := range engines {
		t.Run(name, func(t *testing.T) {
			bx, lx := pair[0], pair[1]
			rng := rand.New(rand.NewSource(91))
			var dst *BatchResult
			var single []uint32
			check := func(label string, qs []Rect, rel Relation) {
				t.Helper()
				b0, l0 := bx.Stats(), lx.Stats()
				var err error
				dst, err = bx.SearchIDsBatch(dst, qs, rel)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					single, err = lx.SearchIDsAppend(single[:0], q, rel)
					if err != nil {
						t.Fatal(err)
					}
					if !equalU32(dst.IDs(i), single) {
						t.Fatalf("%s rel=%v query %d: batch %d ids, looped %d", label, rel, i, len(dst.IDs(i)), len(single))
					}
				}
				if native[name] {
					b1, l1 := bx.Stats(), lx.Stats()
					bd := [4]int64{b1.Queries - b0.Queries, b1.PartitionsChecked - b0.PartitionsChecked,
						b1.PartitionsExplored - b0.PartitionsExplored, b1.ObjectsVerified - b0.ObjectsVerified}
					ld := [4]int64{l1.Queries - l0.Queries, l1.PartitionsChecked - l0.PartitionsChecked,
						l1.PartitionsExplored - l0.PartitionsExplored, l1.ObjectsVerified - l0.ObjectsVerified}
					if bd != ld {
						t.Fatalf("%s rel=%v: stats delta mismatch:\nbatch  %v\nlooped %v", label, rel, bd, ld)
					}
				}
			}
			for _, nq := range []int{1, 16, 64} {
				for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
					qs := make([]Rect, nq)
					for i := range qs {
						qs[i] = point(rng)
					}
					check("points", qs, rel)
				}
			}
			check("mixed", []Rect{point(rng), randomRect(rng, dims, 0.5), point(rng)}, Intersects)
			nan := make([]float32, dims)
			for d := range nan {
				nan[d] = rng.Float32()
			}
			nan[2] = float32(math.NaN())
			check("nan", []Rect{point(rng), Point(nan), point(rng)}, Encloses)
		})
	}
}

// TestDiskSearchIDsBatch pins the disk batch plane, cache on and off: same
// per-query answer sets, same per-(cluster,query) CPU charges, and — the
// point of the coalesced read plan — strictly fewer seeks than the looped
// equivalent when the cache is off.
func TestDiskSearchIDsBatch(t *testing.T) {
	src, path := buildDiskCheckpoint(t, 4, 5000)
	defer src.Close()
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"cache-off", []Option{WithDiskCache(0)}},
		{"cache-on", []Option{WithDiskCache(32 << 20)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bx, err := OpenDisk(path, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer bx.Close()
			lx, err := OpenDisk(path, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer lx.Close()
			rng := rand.New(rand.NewSource(77))
			var dst *BatchResult
			var single []uint32
			for round := 0; round < 4; round++ {
				qs := make([]Rect, 64)
				for i := range qs {
					qs[i] = randomRect(rng, 4, 0.5)
				}
				b0, l0 := bx.Stats(), lx.Stats()
				dst, err = bx.SearchIDsBatch(dst, qs, Intersects)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					single, err = lx.SearchIDsAppend(single[:0], q, Intersects)
					if err != nil {
						t.Fatal(err)
					}
					if !equalU32(sortedU32(dst.IDs(i)), sortedU32(single)) {
						t.Fatalf("round %d query %d: batch %d ids, looped %d", round, i, len(dst.IDs(i)), len(single))
					}
				}
				b1, l1 := bx.Stats(), lx.Stats()
				// CPU charges are per (cluster, query) and must match the
				// looped singles exactly; only the I/O accounting may differ.
				cpu := func(a, b Stats) [5]int64 {
					return [5]int64{a.Queries - b.Queries, a.PartitionsChecked - b.PartitionsChecked,
						a.PartitionsExplored - b.PartitionsExplored,
						a.ObjectsVerified - b.ObjectsVerified, a.Results - b.Results}
				}
				if cpu(b1, b0) != cpu(l1, l0) {
					t.Fatalf("round %d: CPU charge mismatch:\nbatch  %v\nlooped %v", round, cpu(b1, b0), cpu(l1, l0))
				}
				if tc.name == "cache-off" {
					bSeeks, lSeeks := b1.Seeks-b0.Seeks, l1.Seeks-l0.Seeks
					if bSeeks >= lSeeks {
						t.Fatalf("round %d: batch took %d seeks, looped %d — the coalesced plan must save seeks", round, bSeeks, lSeeks)
					}
				} else if b1.CacheHits-b0.CacheHits > l1.CacheHits-l0.CacheHits {
					t.Fatalf("round %d: batch probed the cache more than looped singles", round)
				}
			}
		})
	}
}

// TestConcurrentBatchMutationStress races batched selections against
// concurrent inserts, updates, deletes and reorganization on both native
// in-memory engines. Results can't be pinned under mutation; the test
// asserts structural sanity (per-query slices present, ids within the ever-
// inserted range) and lets the race detector judge the interleavings.
func TestConcurrentBatchMutationStress(t *testing.T) {
	const dims = 3
	for name, ix := range concurrentEngines(t, dims, WithReorgEvery(20)) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for id := uint32(0); id < 3000; id++ {
				if err := ix.Insert(id, randomRect(rng, dims, 0.3)); err != nil {
					t.Fatal(err)
				}
			}
			const maxID = 3000 + 2*500
			var (
				readers, writers sync.WaitGroup
				stop             atomic.Bool
			)
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(int64(200 + w)))
					base := uint32(3000 + w*500)
					for i := uint32(0); !stop.Load(); i++ {
						id := base + i%500
						switch i % 3 {
						case 0:
							_ = ix.Insert(id, randomRect(rng, dims, 0.2))
						case 1:
							_ = ix.Update(id, randomRect(rng, dims, 0.2))
						default:
							_ = ix.Delete(id)
						}
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(300 + r)))
					var dst *BatchResult
					for round := 0; round < 60; round++ {
						nq := 1 + rng.Intn(32)
						qs := make([]Rect, nq)
						for i := range qs {
							qs[i] = randomRect(rng, dims, 0.8)
						}
						var err error
						dst, err = ix.SearchIDsBatch(dst, qs, Intersects)
						if err != nil {
							t.Error(err)
							return
						}
						if dst.Queries() != nq {
							t.Errorf("batch reports %d queries, want %d", dst.Queries(), nq)
							return
						}
						for i := 0; i < nq; i++ {
							for _, id := range dst.IDs(i) {
								if id >= maxID {
									t.Errorf("query %d returned id %d beyond the inserted range", i, id)
									return
								}
							}
						}
					}
				}(r)
			}
			readers.Wait()
			stop.Store(true)
			writers.Wait()
		})
	}
}
