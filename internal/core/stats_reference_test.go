package core

import (
	"math"
	"math/rand"
	"testing"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// TestCandidateStatsMatchReference checks the statistics a query publishes
// against the paper's definitions, evaluated independently of the recording
// pass: after one query and a drain, a cluster's Q rose by 1 exactly when its
// signature matches the query (Signature.MatchesQuery), a matched cluster's
// candidate q rose by 1 exactly when the candidate's refined dimension
// matches too (Split.MatchesQueryDim on the candidates sig.Enumerate
// derives), the window ticked once, and nothing else moved. Every query
// stays inside one epoch, so no decay blurs the comparison. It covers every relation, range, point and NaN queries, dims
// 1–6, and each single-query sink plus a batch of one.
func TestCandidateStatsMatchReference(t *testing.T) {
	rels := []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses}
	for dims := 1; dims <= 6; dims++ {
		ix := mustNew(t, Config{Dims: dims, ReorgEvery: 1 << 30})
		rng := rand.New(rand.NewSource(int64(70 + dims)))
		for id := uint32(0); id < 2000; id++ {
			if err := ix.Insert(id, randomRect(rng, dims, 0.1)); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < 100; i++ {
				if _, err := searchIDs(ix, randomRect(rng, dims, 0.05), geom.Intersects); err != nil {
					t.Fatal(err)
				}
			}
			ix.Reorganize()
		}
		if ix.Clusters() < 2 {
			t.Fatalf("dims=%d: no clustering formed", dims)
		}
		epoch := ix.Epoch()
		bumped := map[bool]int{} // candidates of matched clusters, by outcome
		var ids []uint32
		var batch geom.IDBatch
		for i := 0; i < 180; i++ {
			rel := rels[i%3]
			var q geom.Rect
			switch i / 3 % 3 {
			case 0:
				q = randomRect(rng, dims, 0.6)
				if i%2 == 0 {
					// Land on candidate bounds exactly (they are
					// multiples of 1/4^k), where ≤ and < differ.
					for d := 0; d < dims; d++ {
						q.Min[d] = float32(math.Floor(float64(q.Min[d])*64)) / 64
						q.Max[d] = float32(math.Ceil(float64(q.Max[d])*64)) / 64
					}
				}
			case 1:
				q = pointRect(rng, dims)
				if i%2 == 0 {
					for d := 0; d < dims; d++ {
						x := float32(rng.Intn(65)) / 64
						q.Min[d], q.Max[d] = x, x
					}
				}
			default:
				q = randomRect(rng, dims, 0.6)
				nan := float32(math.NaN())
				if rng.Intn(2) == 0 {
					q.Min[rng.Intn(dims)] = nan
				} else {
					q.Max[rng.Intn(dims)] = nan
				}
			}

			clusters := append([]*Cluster(nil), ix.clusters...)
			q0 := make([]float64, len(clusters))
			cq0 := make([][]float64, len(clusters))
			for k, c := range clusters {
				ix.syncStats(c)
				q0[k] = c.q
				cq0[k] = append([]float64(nil), c.cands.q...)
			}
			w0 := ix.StatsWindow()

			var err error
			switch i % 4 {
			case 0:
				err = ix.SearchRead(q, rel, func(uint32) bool { return true })
			case 1:
				ids, err = ix.SearchIDsAppendRead(ids[:0], q, rel)
			case 2:
				_, err = ix.CountRead(q, rel)
			default:
				err = ix.SearchBatchRead(&batch, []geom.Rect{q}, rel)
			}
			if err != nil {
				t.Fatal(err)
			}
			ix.DrainStats()

			if ix.Epoch() != epoch || ix.Clusters() != len(clusters) {
				t.Fatalf("dims=%d query %d: the index reorganized (epoch %d→%d, clusters %d→%d)", dims, i, epoch, ix.Epoch(), len(clusters), ix.Clusters())
			}
			if w := ix.StatsWindow(); w != w0+1 {
				t.Fatalf("dims=%d query %d: window %g → %g, want one tick", dims, i, w0, w)
			}
			for k, c := range clusters {
				if ix.clusters[k] != c {
					t.Fatalf("dims=%d query %d: cluster %d moved", dims, i, k)
				}
				matched := c.Signature().MatchesQuery(q, rel)
				if got, want := c.q-q0[k], b2f(matched); got != want {
					t.Fatalf("dims=%d query %d %v rel=%v: cluster %d (%s) Q moved by %g, want %g", dims, i, q, rel, k, c.Signature(), got, want)
				}
				for j, sp := range sig.Enumerate(c.Signature(), ix.cfg.DivisionFactor) {
					d := sp.Dim
					want := b2f(matched && sp.MatchesQueryDim(c.Signature(), rel, q.Min[d], q.Max[d]))
					if matched {
						bumped[want == 1]++
					}
					if got := c.cands.q[j] - cq0[k][j]; got != want {
						t.Fatalf("dims=%d query %d %v rel=%v: cluster %d candidate %d (%+v) q moved by %g, want %g", dims, i, q, rel, k, j, sp, got, want)
					}
				}
			}
		}
		if bumped[true] == 0 || bumped[false] == 0 {
			t.Fatalf("dims=%d: candidates of matched clusters bumped %d, skipped %d; the check needs both", dims, bumped[true], bumped[false])
		}
	}
}

// b2f converts a match condition into its statistics increment.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
