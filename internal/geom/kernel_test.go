package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randColumns builds n random objects as per-dimension columns plus the
// equivalent interleaved flat buffer, with coordinates snapped to a coarse
// grid so exact-boundary cases (including 0 and 1) occur often.
func randColumns(rng *rand.Rand, n, dims int) (lo, hi [][]float32, flat []float32) {
	lo = make([][]float32, dims)
	hi = make([][]float32, dims)
	for d := 0; d < dims; d++ {
		lo[d] = make([]float32, n)
		hi[d] = make([]float32, n)
	}
	grid := func() float32 { return float32(rng.Intn(9)) / 8 }
	r := NewRect(dims)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			a, b := grid(), grid()
			if a > b {
				a, b = b, a
			}
			lo[d][i], hi[d][i] = a, b
			r.Min[d], r.Max[d] = a, b
		}
		flat = AppendFlat(flat, r)
	}
	return lo, hi, flat
}

func randQuery(rng *rand.Rand, dims int) Rect {
	q := NewRect(dims)
	for d := 0; d < dims; d++ {
		a, b := float32(rng.Intn(9))/8, float32(rng.Intn(9))/8
		if a > b {
			a, b = b, a
		}
		q.Min[d], q.Max[d] = a, b
	}
	return q
}

// TestFilterKernelsMatchScalar is the differential property test: filtering
// all dimension columns through the block kernels must select exactly the
// objects the scalar FlatMatches verifier accepts, for every relation,
// across bitmap tail lengths (n not a multiple of 64) and boundary
// coordinates.
func TestFilterKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 3, 63, 64, 65, 127, 128, 200, 1000} {
		for _, dims := range []int{1, 2, 5, 16} {
			lo, hi, flat := randColumns(rng, n, dims)
			bits := make([]uint64, BitmapWords(n))
			for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
				for trial := 0; trial < 20; trial++ {
					q := randQuery(rng, dims)
					InitBitmap(bits, n)
					alive := n
					for d := 0; d < dims && alive > 0; d++ {
						alive = FilterDim(rel, lo[d], hi[d], q.Min[d], q.Max[d], bits)
					}
					count := 0
					for i := 0; i < n; i++ {
						want, _ := FlatMatches(flat, i, q, rel)
						got := bits[i>>6]&(1<<uint(i&63)) != 0
						if alive == 0 {
							got = false
						}
						if got != want {
							t.Fatalf("n=%d dims=%d rel=%v obj=%d: kernel=%v scalar=%v (q=%v)",
								n, dims, rel, i, got, want, q)
						}
						if want {
							count++
						}
					}
					if alive != count {
						t.Fatalf("n=%d dims=%d rel=%v: survivor count %d, want %d", n, dims, rel, alive, count)
					}
				}
			}
		}
	}
}

// TestFilterSurvivorCount pins the per-column return value: it must equal
// the popcount of the narrowed bitmap after each single column.
func TestFilterSurvivorCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 150
	lo, hi, _ := randColumns(rng, n, 1)
	bits := make([]uint64, BitmapWords(n))
	for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
		q := randQuery(rng, 1)
		InitBitmap(bits, n)
		alive := FilterDim(rel, lo[0], hi[0], q.Min[0], q.Max[0], bits)
		pop := 0
		for i := 0; i < n; i++ {
			if bits[i>>6]&(1<<uint(i&63)) != 0 {
				pop++
			}
		}
		if alive != pop {
			t.Fatalf("rel=%v: returned %d, bitmap holds %d", rel, alive, pop)
		}
	}
}

// TestFilterTailBitsStayClear verifies the kernels never resurrect tail bits
// beyond the object count.
func TestFilterTailBitsStayClear(t *testing.T) {
	const n = 70 // two words, 58 tail bits in the second
	lo := make([]float32, n)
	hi := make([]float32, n)
	for i := range lo {
		lo[i], hi[i] = 0, 1 // every object passes any predicate
	}
	bits := make([]uint64, BitmapWords(n))
	for _, rel := range []Relation{Intersects, ContainedBy, Encloses} {
		InitBitmap(bits, n)
		alive := FilterDim(rel, lo, hi, 0, 1, bits)
		if alive != n {
			t.Fatalf("rel=%v: %d survivors, want %d", rel, alive, n)
		}
		if got := bits[1] >> uint(n-64); got != 0 {
			t.Fatalf("rel=%v: tail bits set: %b", rel, got)
		}
	}
}

// TestInitBitmap checks the alive prefix and clear tail for assorted sizes.
func TestInitBitmap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 129} {
		bits := make([]uint64, BitmapWords(n))
		for i := range bits {
			bits[i] = 0xdeadbeefdeadbeef // stale garbage must be overwritten
		}
		InitBitmap(bits, n)
		for i := 0; i < len(bits)*64; i++ {
			got := bits[i>>6]&(1<<uint(i&63)) != 0
			if got != (i < n) {
				t.Fatalf("n=%d bit %d = %v", n, i, got)
			}
		}
	}
}

// TestFilterDimUnknownRelation mirrors FlatMatches: an undefined relation
// selects nothing.
func TestFilterDimUnknownRelation(t *testing.T) {
	lo, hi := []float32{0}, []float32{1}
	bits := make([]uint64, 1)
	InitBitmap(bits, 1)
	if got := FilterDim(Relation(9), lo, hi, 0, 1, bits); got != 0 {
		t.Fatalf("unknown relation: %d survivors, want 0", got)
	}
}

var kernelRelations = []Relation{Intersects, ContainedBy, Encloses}

// kernelSpecials are the coordinates on which the vector and portable kernel
// bodies must agree beyond the ordinary grid: every comparison with NaN is
// false, ±Inf order as extremes and −0 equals 0.
var kernelSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0, 1,
}

// portableFilter runs rel's portable kernel body, the reference for the
// dispatching Filter* kernels.
func portableFilter(rel Relation, lo, hi []float32, qlo, qhi float32, bits []uint64) int {
	switch rel {
	case Intersects:
		return filterLeGeGeneric(lo, hi, qhi, qlo, bits)
	case ContainedBy:
		return filterGeLeGeneric(lo, hi, qlo, qhi, bits)
	case Encloses:
		return filterLeGeGeneric(lo, hi, qlo, qhi, bits)
	}
	return 0
}

func logVectorPath(t testing.TB) {
	if !useAVX2 {
		t.Log("AVX2 unavailable: the Filter* kernels dispatch to the portable bodies, so only the portable path ran")
	}
}

// TestVectorKernelsMatchPortable is the vector-vs-portable differential: for
// every relation, every length 0–130 plus 4096, member columns and query
// bounds drawn half from the grid and half from NaN/±Inf/−0/0/1, and
// starting bitmaps that are full, random, sparse or dense with arbitrary tail
// bits, the dispatching kernel must leave the same bitmap and return the same
// count as the portable body. One extra word past the object words must stay
// untouched on both paths.
func TestVectorKernelsMatchPortable(t *testing.T) {
	logVectorPath(t)
	rng := rand.New(rand.NewSource(13))
	draw := func() float32 {
		if rng.Intn(2) == 0 {
			return kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
		return float32(rng.Intn(9)) / 8
	}
	var lengths []int
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4096)
	for _, n := range lengths {
		lo, hi := make([]float32, n), make([]float32, n)
		for i := range lo {
			lo[i], hi[i] = draw(), draw()
		}
		nw := BitmapWords(n)
		start := make([]uint64, nw+1)
		vec, ref := make([]uint64, nw+1), make([]uint64, nw+1)
		for trial := 0; trial < 16; trial++ {
			for i := range start {
				switch trial % 4 {
				case 0:
					start[i] = ^uint64(0)
				case 1:
					start[i] = rng.Uint64()
				case 2:
					start[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				case 3:
					start[i] = rng.Uint64() | rng.Uint64() | rng.Uint64()
				}
			}
			if trial == 0 {
				InitBitmap(start, n)
			}
			qlo, qhi := draw(), draw()
			for _, rel := range kernelRelations {
				copy(vec, start)
				copy(ref, start)
				got := FilterDim(rel, lo, hi, qlo, qhi, vec)
				want := portableFilter(rel, lo, hi, qlo, qhi, ref)
				if got != want || !slices.Equal(vec, ref) {
					t.Fatalf("n=%d trial=%d rel=%v q=[%v,%v]: vector %d %x, portable %d %x",
						n, trial, rel, qlo, qhi, got, vec, want, ref)
				}
				if vec[nw] != start[nw] {
					t.Fatalf("n=%d rel=%v: word past the objects changed", n, rel)
				}
			}
		}
	}
}

// TestKernelShortSlicesPanic checks that a hi column or bitmap shorter than
// lo panics on both paths instead of being read out of bounds — including a
// hi column whose capacity still covers lo.
func TestKernelShortSlicesPanic(t *testing.T) {
	logVectorPath(t)
	const n = 70
	lo, hi := make([]float32, n), make([]float32, n)
	bits := make([]uint64, BitmapWords(n))
	paths := []struct {
		name   string
		filter func(Relation, []float32, []float32, float32, float32, []uint64) int
	}{
		{"dispatch", FilterDim},
		{"portable", portableFilter},
	}
	cases := []struct {
		name string
		hi   []float32
		bits []uint64
	}{
		{"short hi", hi[:n-1], bits},
		{"short bits", hi, bits[:1]},
	}
	for _, p := range paths {
		for _, c := range cases {
			for _, rel := range kernelRelations {
				InitBitmap(bits, n)
				panicked := func() (panicked bool) {
					defer func() { panicked = recover() != nil }()
					p.filter(rel, lo, c.hi, 0, 1, c.bits)
					return false
				}()
				if !panicked {
					t.Errorf("%s %s rel=%v: no panic", p.name, c.name, rel)
				}
			}
		}
	}
}

// FuzzFilterKernels fuzzes the kernels against the scalar verifier and the
// two kernel paths against each other. The input bytes seed object
// coordinates, an object count exercising bitmap tails and a query
// rectangle; a query byte b maps to the grid value (b%12)/8 for b%12 ≤ 8 and
// to NaN, +Inf, −Inf otherwise, and spec/256 is the share of member
// coordinates replaced by NaN, ±Inf, −0, 0 or 1. The dispatching and portable
// kernels must agree on every bitmap; without NaN every relation must also
// agree with FlatMatches on every object (FlatMatches rejects by negated
// comparison, so it accepts NaN where the kernels reject it).
func FuzzFilterKernels(f *testing.F) {
	logVectorPath(f)
	f.Add(uint16(1), byte(0), byte(8), byte(2), byte(6), byte(0))
	f.Add(uint16(64), byte(0), byte(0), byte(8), byte(8), byte(0))
	f.Add(uint16(65), byte(3), byte(3), byte(3), byte(3), byte(0))
	f.Add(uint16(200), byte(8), byte(0), byte(1), byte(7), byte(0))
	f.Add(uint16(130), byte(9), byte(10), byte(11), byte(4), byte(64))
	f.Add(uint16(77), byte(11), byte(10), byte(0), byte(8), byte(255))
	f.Fuzz(func(t *testing.T, nRaw uint16, q0, q1, q2, q3, spec byte) {
		n := int(nRaw)%300 + 1
		const dims = 2
		rng := rand.New(rand.NewSource(int64(spec)<<48 | int64(nRaw)<<32 | int64(q0)<<24 | int64(q1)<<16 | int64(q2)<<8 | int64(q3)))
		lo, hi, flat := randColumns(rng, n, dims)
		hasNaN := false
		for d := 0; d < dims; d++ {
			for i := 0; i < n; i++ {
				for _, c := range []*float32{&lo[d][i], &hi[d][i]} {
					if rng.Intn(256) < int(spec) {
						*c = kernelSpecials[rng.Intn(len(kernelSpecials))]
						hasNaN = hasNaN || *c != *c
					}
				}
				flat[i*2*dims+2*d], flat[i*2*dims+2*d+1] = lo[d][i], hi[d][i]
			}
		}
		q := NewRect(dims)
		bnd := func(b byte) float32 {
			switch b % 12 {
			case 9:
				hasNaN = true
				return float32(math.NaN())
			case 10:
				return float32(math.Inf(1))
			case 11:
				return float32(math.Inf(-1))
			}
			return float32(b%12) / 8
		}
		q.Min[0], q.Max[0] = bnd(q0), bnd(q1)
		if q.Min[0] > q.Max[0] {
			q.Min[0], q.Max[0] = q.Max[0], q.Min[0]
		}
		q.Min[1], q.Max[1] = bnd(q2), bnd(q3)
		if q.Min[1] > q.Max[1] {
			q.Min[1], q.Max[1] = q.Max[1], q.Min[1]
		}
		bits := make([]uint64, BitmapWords(n))
		ref := make([]uint64, BitmapWords(n))
		for _, rel := range kernelRelations {
			InitBitmap(bits, n)
			InitBitmap(ref, n)
			alive := n
			for d := 0; d < dims && alive > 0; d++ {
				alive = FilterDim(rel, lo[d], hi[d], q.Min[d], q.Max[d], bits)
				want := portableFilter(rel, lo[d], hi[d], q.Min[d], q.Max[d], ref)
				if alive != want || !slices.Equal(bits, ref) {
					t.Fatalf("n=%d rel=%v d=%d: vector %d %x, portable %d %x", n, rel, d, alive, bits, want, ref)
				}
			}
			if hasNaN {
				continue
			}
			for i := 0; i < n; i++ {
				want, _ := FlatMatches(flat, i, q, rel)
				got := alive > 0 && bits[i>>6]&(1<<uint(i&63)) != 0
				if got != want {
					t.Fatalf("n=%d rel=%v obj=%d: kernel=%v scalar=%v", n, rel, i, got, want)
				}
			}
		}
	})
}
