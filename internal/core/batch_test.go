package core

// Differential tests for the batched query plane: a batch must be
// observably identical to the looped single queries it replaces — the same
// per-query result sets in the same order, the same cost-meter totals, and
// bit-identical clustering statistics (cluster Q, candidate q, the decayed
// window, the epoch counter), including when an epoch boundary falls in the
// middle of the batch.

import (
	"math/rand"
	"testing"

	"accluster/internal/geom"
)

// buildTwin builds two structurally identical indexes from the same
// deterministic insert stream.
func buildTwin(t *testing.T, cfg Config, n int, seed int64, maxSize float32) (*Index, *Index) {
	t.Helper()
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < n; id++ {
		r := randomRect(rng, cfg.Dims, maxSize)
		if err := a.Insert(uint32(id), r); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(uint32(id), r); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// statsSnapshot captures every adaptive indicator the batch path must keep
// equal to the looped singles.
type statsSnapshot struct {
	window  float64
	epoch   int64
	q       []float64
	cands   [][]float64
	nClust  int
	nObject int
}

func snapshotStats(ix *Index) statsSnapshot {
	s := statsSnapshot{window: ix.StatsWindow(), epoch: ix.Epoch(), nClust: ix.Clusters(), nObject: ix.Len()}
	ix.VisitClusters(func(c *Cluster) {
		ix.syncStats(c)
		s.q = append(s.q, c.q)
		s.cands = append(s.cands, append([]float64(nil), c.cands.q...))
	})
	return s
}

func diffStats(t *testing.T, name string, a, b statsSnapshot) {
	t.Helper()
	if a.window != b.window || a.epoch != b.epoch || a.nClust != b.nClust || a.nObject != b.nObject {
		t.Fatalf("%s: window/epoch/shape mismatch: (%g,%d,%d,%d) vs (%g,%d,%d,%d)",
			name, a.window, a.epoch, a.nClust, a.nObject, b.window, b.epoch, b.nClust, b.nObject)
	}
	for i := range a.q {
		if a.q[i] != b.q[i] {
			t.Fatalf("%s: cluster %d Q: %g vs %g", name, i, a.q[i], b.q[i])
		}
		if len(a.cands[i]) != len(b.cands[i]) {
			t.Fatalf("%s: cluster %d candidate count: %d vs %d", name, i, len(a.cands[i]), len(b.cands[i]))
		}
		for k := range a.cands[i] {
			if a.cands[i][k] != b.cands[i][k] {
				t.Fatalf("%s: cluster %d candidate %d q: %g vs %g", name, i, k, a.cands[i][k], b.cands[i][k])
			}
		}
	}
}

// TestSearchBatchDifferential pins the batch read path against looped
// SearchIDsAppendRead on twins: identical per-query id sets in identical
// order, identical meter totals, identical statistics after both
// publications drain — with ReorgEvery chosen so an epoch boundary lands
// inside every batch. Both twins read before either drains, so each round
// reads identical structure; both then apply identical records and take the
// same number of reorganization steps, so the comparison stays exact.
func TestSearchBatchDifferential(t *testing.T) {
	for _, dims := range []int{2, 8} {
		for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
			cfg := Config{Dims: dims, ReorgEvery: 7}
			loop, batch := buildTwin(t, cfg, 2500, int64(40+dims), 0.3)
			rng := rand.New(rand.NewSource(int64(90 + dims)))
			var dst geom.IDBatch
			var single []uint32
			for round := 0; round < 6; round++ {
				nq := []int{1, 3, 17, 64}[round%4]
				qs := make([]geom.Rect, nq)
				for i := range qs {
					if rel == geom.Encloses {
						// Point queries: the SDI case the batch plane targets.
						qs[i] = pointRect(rng, dims)
					} else {
						qs[i] = randomRect(rng, dims, 1)
					}
				}
				loopBefore, batchBefore := loop.Meter(), batch.Meter()
				if err := batch.SearchBatchRead(&dst, qs, rel); err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					var err error
					single, err = loop.SearchIDsAppendRead(single[:0], q, rel)
					if err != nil {
						t.Fatal(err)
					}
					got := dst.Query(i)
					if !equalIDs(got, single) {
						t.Fatalf("dims=%d rel=%v round=%d query=%d: batch ids %v, looped %v", dims, rel, round, i, got, single)
					}
				}
				ld := loop.Meter().Sub(loopBefore)
				bd := batch.Meter().Sub(batchBefore)
				if ld != bd {
					t.Fatalf("dims=%d rel=%v round=%d: meter delta mismatch:\nbatch  %+v\nlooped %+v", dims, rel, round, bd, ld)
				}
				loop.DrainStats()
				batch.DrainStats()
				diffStats(t, "after drain", snapshotStats(loop), snapshotStats(batch))
			}
		}
	}
}

// TestSearchBatchUnderReorg runs batches against an actively reorganizing
// index: results must still equal a brute-force shadow (reorganization
// moves objects between clusters, never in or out of the answer).
func TestSearchBatchUnderReorg(t *testing.T) {
	cfg := Config{Dims: 3, ReorgEvery: 20}
	ix := mustNew(t, cfg)
	ref := shadow{}
	rng := rand.New(rand.NewSource(99))
	for id := 0; id < 2000; id++ {
		r := randomRect(rng, 3, 0.4)
		if err := ix.Insert(uint32(id), r); err != nil {
			t.Fatal(err)
		}
		ref[uint32(id)] = r
	}
	var dst geom.IDBatch
	for round := 0; round < 30; round++ {
		qs := make([]geom.Rect, 11)
		for i := range qs {
			qs[i] = randomRect(rng, 3, 1)
		}
		err := ix.SearchBatchRead(&dst, qs, geom.Intersects)
		ix.DrainStats()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := ref.search(q, geom.Intersects)
			if got := sortedCopy(dst.Query(i)); !equalIDs(got, want) {
				t.Fatalf("round=%d query=%d: %d ids, want %d", round, i, len(got), len(want))
			}
		}
	}
	if ix.Epoch() == 0 {
		t.Fatal("reorganization never triggered; test exercised nothing")
	}
}

// TestSearchBatchValidation: an invalid query fails the whole batch before
// any of it executes — no meter charges, no statistics, no partial results.
func TestSearchBatchValidation(t *testing.T) {
	ix := mustNew(t, Config{Dims: 2})
	obj := geom.NewRect(2)
	obj.Min[0], obj.Min[1], obj.Max[0], obj.Max[1] = 0.1, 0.1, 0.9, 0.9
	if err := ix.Insert(1, obj); err != nil {
		t.Fatal(err)
	}
	var dst geom.IDBatch
	full := geom.NewRect(2)
	full.Max[0], full.Max[1] = 1, 1
	qs := []geom.Rect{full, geom.NewRect(3)} // second query: wrong dims
	before := ix.Meter()
	if err := ix.SearchBatchRead(&dst, qs, geom.Intersects); err == nil {
		t.Fatal("want dimension-mismatch error")
	}
	if d := ix.Meter().Sub(before); d.Queries != 0 {
		t.Fatalf("failed batch charged %d queries", d.Queries)
	}
	if ix.StatsBacklog() != 0 {
		t.Fatal("failed batch enqueued statistics")
	}
	if err := ix.SearchBatchRead(&dst, qs, geom.Relation(42)); err == nil {
		t.Fatal("want invalid-relation error")
	}
	// Empty batch: valid, zero queries.
	if err := ix.SearchBatchRead(&dst, nil, geom.Intersects); err != nil {
		t.Fatal(err)
	}
	if dst.Queries() != 0 {
		t.Fatalf("empty batch reports %d queries", dst.Queries())
	}
}

// pointRect builds a degenerate (point) rectangle.
func pointRect(rng *rand.Rand, dims int) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		x := rng.Float32()
		r.Min[d], r.Max[d] = x, x
	}
	return r
}
