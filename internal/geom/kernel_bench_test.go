package geom

// BenchmarkSearchKernel isolates the columnar verification kernels from
// clustering behaviour: one synthetic cluster of fixed size, dimensionality
// swept over {4, 8, 16, 32} and per-dimension selectivity over {0.1, 0.5,
// 0.9} (the fraction of objects surviving each dimension column — low
// selectivity values empty the bitmap quickly, high values keep it dense).
// The kernel variant runs the dispatching FilterIntersects (the AVX2 body
// where the CPU has it), the portable variant calls the portable body
// directly, so benchstat shows the vector/portable gap per case. The scalar
// variant runs the per-object FlatMatches verifier over the interleaved
// layout the engine used before the columnar rewrite, so kernel regressions
// show up as a shrinking kernel/scalar gap. Run with -benchmem: the kernels
// must not allocate.

import (
	"fmt"
	"math/rand"
	"testing"
)

const kernelBenchObjects = 4096

// benchData builds columns where each dimension passes the query interval
// [0, qhi] with probability ≈ pass.
func benchData(dims int, pass float64) (lo, hi [][]float32, flat []float32, q Rect) {
	rng := rand.New(rand.NewSource(99))
	lo = make([][]float32, dims)
	hi = make([][]float32, dims)
	for d := 0; d < dims; d++ {
		lo[d] = make([]float32, kernelBenchObjects)
		hi[d] = make([]float32, kernelBenchObjects)
	}
	q = NewRect(dims)
	r := NewRect(dims)
	for d := 0; d < dims; d++ {
		q.Min[d], q.Max[d] = 0, float32(pass)
	}
	for i := 0; i < kernelBenchObjects; i++ {
		for d := 0; d < dims; d++ {
			// Degenerate member intervals: [x,x] intersects [0,pass]
			// iff x ≤ pass, giving the target per-column survival.
			x := rng.Float32()
			lo[d][i], hi[d][i] = x, x
			r.Min[d], r.Max[d] = x, x
		}
		flat = AppendFlat(flat, r)
	}
	return lo, hi, flat, q
}

func BenchmarkSearchKernel(b *testing.B) {
	for _, dims := range []int{4, 8, 16, 32} {
		for _, pass := range []float64{0.1, 0.5, 0.9} {
			lo, hi, flat, q := benchData(dims, pass)
			bits := make([]uint64, BitmapWords(kernelBenchObjects))
			b.Run(fmt.Sprintf("dims=%d/sel=%.1f/kernel", dims, pass), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(kernelBenchObjects) * 8)
				survivors := 0
				for i := 0; i < b.N; i++ {
					InitBitmap(bits, kernelBenchObjects)
					alive := kernelBenchObjects
					for d := 0; d < dims && alive > 0; d++ {
						alive = FilterIntersects(lo[d], hi[d], q.Min[d], q.Max[d], bits)
					}
					survivors += alive
				}
				_ = survivors
			})
			b.Run(fmt.Sprintf("dims=%d/sel=%.1f/portable", dims, pass), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(kernelBenchObjects) * 8)
				survivors := 0
				for i := 0; i < b.N; i++ {
					InitBitmap(bits, kernelBenchObjects)
					alive := kernelBenchObjects
					for d := 0; d < dims && alive > 0; d++ {
						// FilterIntersects is the leGe shape at (qhi, qlo).
						alive = filterLeGeGeneric(lo[d], hi[d], q.Max[d], q.Min[d], bits)
					}
					survivors += alive
				}
				_ = survivors
			})
			b.Run(fmt.Sprintf("dims=%d/sel=%.1f/scalar", dims, pass), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(kernelBenchObjects) * 8)
				survivors := 0
				for i := 0; i < b.N; i++ {
					for k := 0; k < kernelBenchObjects; k++ {
						if ok, _ := FlatMatches(flat, k, q, Intersects); ok {
							survivors++
						}
					}
				}
				_ = survivors
			})
		}
	}
}
