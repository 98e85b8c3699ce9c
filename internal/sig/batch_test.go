package sig

import (
	"fmt"
	"math"
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

// TestMatchBoundsBatchMatchesLooped pins the batched signature pass against
// looped MatchBounds directly: for every batch size around the kernel's
// shape changes (1 takes the single-query scan, 2–3 keep sparse at 0, 64/65
// straddle a bitmap word), range and all-point batches, every relation,
// NaN, ±Inf and −0 coordinates, and with the selector side array present or
// absent, each query's matched clusters equal the looped scan's in mirror
// order, and every cluster lists its queries in ascending order.
func TestMatchBoundsBatchMatchesLooped(t *testing.T) {
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0, 1}
	for _, dims := range []int{1, 4} {
		root := Root(dims)
		sb := AppendBounds(nil, root)
		rng := rand.New(rand.NewSource(int64(17 + dims)))
		for _, sp := range Enumerate(root, 4) {
			child := sp.Child(root)
			sb = AppendBounds(sb, child)
			for _, sp2 := range Enumerate(child, 4) {
				if rng.Intn(6) == 0 {
					sb = AppendBounds(sb, sp2.Child(child))
				}
			}
		}
		nsig := len(sb) / (4 * dims)
		var sel []uint8
		for ci := 0; ci < nsig; ci++ {
			sel = AppendSelectors(sel, sb[ci*4*dims:(ci+1)*4*dims], dims)
		}
		// coord draws quantized coordinates (which land on signature
		// bounds exactly) and, one time in four, a special value.
		coord := func(withNaN bool) float32 {
			if rng.Intn(4) == 0 {
				if withNaN {
					return special[rng.Intn(len(special))]
				}
				return special[1+rng.Intn(len(special)-1)]
			}
			return float32(rng.Intn(17)) / 16
		}
		for _, kind := range []string{"range", "point", "point-nan"} {
			for _, nq := range []int{1, 2, 3, 4, 5, 17, 64, 65} {
				qs := make([]geom.Rect, nq)
				for i := range qs {
					qs[i] = geom.NewRect(dims)
					for d := 0; d < dims; d++ {
						if kind == "range" {
							a, b := coord(true), coord(true)
							if a > b {
								a, b = b, a
							}
							qs[i].Min[d], qs[i].Max[d] = a, b
						} else {
							x := coord(kind == "point-nan")
							qs[i].Min[d], qs[i].Max[d] = x, x
						}
					}
				}
				if kind == "point-nan" {
					nan := float32(math.NaN())
					qs[nq-1].Min[0], qs[nq-1].Max[0] = nan, nan
				}
				var bq BatchQueries
				bq.Reset(qs, dims)
				if wantPoints := kind == "point" && nq > 1; bq.Points != wantPoints {
					t.Fatalf("dims=%d %s nq=%d: Points=%t, want %t", dims, kind, nq, bq.Points, wantPoints)
				}
				bits := make([]uint64, geom.BitmapWords(nq))
				for _, rel := range []geom.Relation{geom.Intersects, geom.ContainedBy, geom.Encloses} {
					for _, s := range [][]uint8{sel, nil} {
						var out BatchMatch
						MatchBoundsBatch(sb, nsig, dims, &bq, rel, s, bits, &out)
						name := func() string {
							return fmt.Sprintf("dims=%d %s nq=%d rel=%v sel=%t", dims, kind, nq, rel, s != nil)
						}
						if len(out.QOff) != len(out.Clusters)+1 {
							t.Fatalf("%s: %d offsets for %d clusters", name(), len(out.QOff), len(out.Clusters))
						}
						perQ := make([][]int32, nq)
						for j, ci := range out.Clusters {
							if j > 0 && out.Clusters[j-1] >= ci {
								t.Fatalf("%s: clusters out of mirror order: %v", name(), out.Clusters)
							}
							qidx := out.QIdx[out.QOff[j]:out.QOff[j+1]]
							if len(qidx) == 0 {
								t.Fatalf("%s: cluster %d listed with no query", name(), ci)
							}
							for k, qi := range qidx {
								if k > 0 && qidx[k-1] >= qi {
									t.Fatalf("%s: cluster %d queries not ascending: %v", name(), ci, qidx)
								}
								perQ[qi] = append(perQ[qi], ci)
							}
						}
						for i, q := range qs {
							if want := MatchBounds(sb, nsig, dims, q, rel, nil); !slices.Equal(perQ[i], want) {
								t.Fatalf("%s query %d %v: batch %v, looped %v", name(), i, q, perQ[i], want)
							}
						}
					}
				}
			}
		}
	}
}
