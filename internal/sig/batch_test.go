package sig

import (
	"math/rand"
	"slices"
	"testing"

	"accluster/internal/geom"
)

// TestMatchBoundsBatchIgnoresStaleBitmapWords is the regression test for a
// bitmap longer than geom.BitmapWords(bq.N) holding a stale non-zero word
// past that prefix: MatchBoundsBatch must use only the prefix, so the batch
// matches exactly what the looped MatchBounds does instead of panicking in
// the filter kernels or reporting queries that do not exist.
func TestMatchBoundsBatchIgnoresStaleBitmapWords(t *testing.T) {
	const dims, nq = 4, 10
	root := Root(dims)
	sb := AppendBounds(nil, root)
	for _, sp := range Enumerate(root, 4) {
		sb = AppendBounds(sb, sp.Child(root))
	}
	nsig := len(sb) / (4 * dims)
	rng := rand.New(rand.NewSource(5))
	qs := make([]geom.Rect, nq)
	for i := range qs {
		qs[i] = randomRect(rng, dims)
	}
	var bq BatchQueries
	bq.Reset(qs, dims)
	if bq.Points {
		t.Fatal("batch must take the columnar path, not the point kernel")
	}
	for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
		bits := []uint64{0, ^uint64(0)}
		var out BatchMatch
		MatchBoundsBatch(sb, nsig, dims, &bq, rel, nil, bits, &out)
		perQ := make([][]int32, nq)
		for j, ci := range out.Clusters {
			for _, qi := range out.QIdx[out.QOff[j]:out.QOff[j+1]] {
				if qi < 0 || qi >= nq {
					t.Fatalf("rel=%v: cluster %d matched query %d of a batch of %d", rel, ci, qi, nq)
				}
				perQ[qi] = append(perQ[qi], ci)
			}
		}
		for i, q := range qs {
			if want := MatchBounds(sb, nsig, dims, q, rel, nil); !slices.Equal(perQ[i], want) {
				t.Fatalf("rel=%v query %d: batch %v, looped %v", rel, i, perQ[i], want)
			}
		}
	}
}
