package geom

import mbits "math/bits"

// Columnar block-scan kernels. The clustering engine stores each cluster's
// members as per-dimension coordinate columns (lo[d][i], hi[d][i]); a
// selection verifies one cluster by walking a candidate bitmap through the
// columns, pruning one dimension at a time. Each kernel evaluates a single
// dimension for every candidate still alive in bits and clears the bits of
// the objects failing the relation's per-dimension predicate.
//
// The bitmap packs object i into bits[i/64] bit i%64. A kernel needs
// len(hi) ≥ len(lo) and len(bits) ≥ BitmapWords(len(lo)), and panics
// otherwise; it narrows exactly the first BitmapWords(len(lo)) words, clears
// any bit past len(lo) in the last of them and leaves later words untouched.
//
// Lanes are processed a 64-bit word at a time, and fully zeroed words are
// skipped outright; the returned survivor count lets the caller stop as soon
// as the bitmap empties. Each kernel has two bodies:
//
//   - The AVX2 body (kernel_amd64.s) evaluates every lane of a non-zero word:
//     eight 8-lane compare pairs, each folded into 8 keep bits with one
//     VANDPS and one VMOVMSKPS, then POPCNT on the narrowed word. The partial
//     last word goes through the same body with masked loads.
//   - The portable body runs everywhere else and is the reference the vector
//     body is tested against. Dense words (at least sparseCutoff survivors)
//     take a branch-free full-word pass where each comparison materializes as
//     a flag bit (SETcc), not a jump; sparse words iterate only their set
//     bits, so lanes killed by earlier dimensions cost nothing — the columnar
//     equivalent of the scalar verifier's per-object early exit.

// BitmapWords returns the number of uint64 words needed for n objects.
func BitmapWords(n int) int { return (n + 63) >> 6 }

// InitBitmap marks the first n objects alive and clears the tail bits. It
// requires len(bits) ≥ BitmapWords(n) and leaves words beyond that count
// untouched.
//
//ac:noalloc
func InitBitmap(bits []uint64, n int) {
	full := n >> 6
	for w := 0; w < full; w++ {
		bits[w] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		bits[full] = (uint64(1) << rem) - 1
	}
}

// sparseCutoff is the survivor count below which per-set-bit iteration beats
// the branch-free full-word pass in the portable kernels: a full pass costs
// 64 lane evaluations regardless of how many lanes are still alive, while a
// set-bit step costs only slightly more than one lane evaluation (find/clear
// the bit plus two indexed loads), so sparse iteration wins already at
// moderate density.
const sparseCutoff = 48

// b2u converts a comparison outcome into a 0/1 lane bit; the compiler turns
// it into a flag materialization (SETcc), keeping the dense pass branch-free.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// The three relations reduce to two per-dimension comparison shapes over a
// scalar pair (a,b):
//
//   - leGe keeps lo[i] ≤ a ∧ hi[i] ≥ b: Intersects with (a,b) = (qhi,qlo),
//     Encloses with (qlo,qhi);
//   - geLe keeps lo[i] ≥ a ∧ hi[i] ≤ b: ContainedBy with (qlo,qhi).
//
// Every comparison involving NaN is false, as with Go's <= and >=, so a NaN
// coordinate or bound never survives. filterLeGe and filterGeLe dispatch each
// shape to its AVX2 body when the CPU and OS support it (kernel_amd64.go) and
// to the portable body otherwise; both bodies produce the same bitmap and
// count for every input.

// FilterIntersects narrows bits to objects whose interval [lo[i],hi[i]]
// overlaps the query interval [qlo,qhi] and returns the survivor count.
//
//ac:noalloc
func FilterIntersects(lo, hi []float32, qlo, qhi float32, bits []uint64) int {
	return filterLeGe(lo, hi, qhi, qlo, bits)
}

// FilterContainedBy narrows bits to objects contained in the query interval
// (lo[i] ≥ qlo and hi[i] ≤ qhi) and returns the survivor count.
//
//ac:noalloc
func FilterContainedBy(lo, hi []float32, qlo, qhi float32, bits []uint64) int {
	return filterGeLe(lo, hi, qlo, qhi, bits)
}

// FilterEncloses narrows bits to objects enclosing the query interval
// (lo[i] ≤ qlo and hi[i] ≥ qhi) and returns the survivor count.
//
//ac:noalloc
func FilterEncloses(lo, hi []float32, qlo, qhi float32, bits []uint64) int {
	return filterLeGe(lo, hi, qlo, qhi, bits)
}

// kernelBits checks that hi and bits cover every lane of lo and returns bits
// trimmed to exactly the words holding those lanes. Both kernel bodies run
// behind it, so a short column or bitmap panics on either path instead of
// being read out of bounds.
//
//ac:noalloc
func kernelBits(lo, hi []float32, bits []uint64) []uint64 {
	nw := BitmapWords(len(lo))
	if len(hi) < len(lo) || len(bits) < nw {
		panic("geom: filter kernel: hi column or bitmap shorter than lo")
	}
	return bits[:nw]
}

// filterLeGeGeneric is the portable body of the leGe shape.
//
//ac:noalloc
func filterLeGeGeneric(lo, hi []float32, a, b float32, bits []uint64) int {
	bits = kernelBits(lo, hi, bits)
	survivors := 0
	n := len(lo)
	for w := range bits {
		word := bits[w]
		if word == 0 {
			continue
		}
		base := w << 6
		m := min(n-base, 64)
		if m < 64 {
			word &= 1<<uint(m) - 1 // lanes past len(lo) hold no object
		}
		l, h := lo[base:base+m], hi[base:base+m]
		var keep uint64
		if mbits.OnesCount64(word) < sparseCutoff {
			// The &63 mask proves the index < 64 to the compiler,
			// eliding bounds checks on full words (set bits index
			// live lanes once the tail is masked).
			for rest := word; rest != 0; rest &= rest - 1 {
				j := mbits.TrailingZeros64(rest)
				keep |= (b2u(l[j&63] <= a) & b2u(h[j&63] >= b)) << uint(j)
			}
		} else {
			for j := 0; j < m; j++ {
				keep |= (b2u(l[j] <= a) & b2u(h[j] >= b)) << uint(j)
			}
		}
		word &= keep
		bits[w] = word
		survivors += mbits.OnesCount64(word)
	}
	return survivors
}

// filterGeLeGeneric is the portable body of the geLe shape.
//
//ac:noalloc
func filterGeLeGeneric(lo, hi []float32, a, b float32, bits []uint64) int {
	bits = kernelBits(lo, hi, bits)
	survivors := 0
	n := len(lo)
	for w := range bits {
		word := bits[w]
		if word == 0 {
			continue
		}
		base := w << 6
		m := min(n-base, 64)
		if m < 64 {
			word &= 1<<uint(m) - 1 // lanes past len(lo) hold no object
		}
		l, h := lo[base:base+m], hi[base:base+m]
		var keep uint64
		if mbits.OnesCount64(word) < sparseCutoff {
			// The &63 mask proves the index < 64 to the compiler,
			// eliding bounds checks on full words (set bits index
			// live lanes once the tail is masked).
			for rest := word; rest != 0; rest &= rest - 1 {
				j := mbits.TrailingZeros64(rest)
				keep |= (b2u(l[j&63] >= a) & b2u(h[j&63] <= b)) << uint(j)
			}
		} else {
			for j := 0; j < m; j++ {
				keep |= (b2u(l[j] >= a) & b2u(h[j] <= b)) << uint(j)
			}
		}
		word &= keep
		bits[w] = word
		survivors += mbits.OnesCount64(word)
	}
	return survivors
}

// QueryDimOrder fills order with the query's dimensions most-selective-first
// for the verification kernels: ascending query width for Intersects and
// ContainedBy (a narrow query interval disqualifies the most objects),
// descending for Encloses (a wide demanded interval does). order and widths
// are caller-provided scratch of length q.Dims() — widths backs the sort
// keys — so a pooled caller computes the order allocation-free once per
// query and applies it to every explored cluster or cached region.
//
//ac:noalloc
func QueryDimOrder(order []int, widths []float32, q Rect, rel Relation) []int {
	dims := q.Dims()
	desc := rel == Encloses
	for d := 0; d < dims; d++ {
		order[d] = d
		w := q.Max[d] - q.Min[d]
		if desc {
			w = -w
		}
		widths[d] = w
	}
	// Insertion sort, stable on dimension index: dims are small (≤ a few
	// dozen) and the caller's scratch keeps this allocation-free.
	for i := 1; i < dims; i++ {
		d, w := order[i], widths[i]
		j := i - 1
		for j >= 0 && widths[j] > w {
			order[j+1], widths[j+1] = order[j], widths[j]
			j--
		}
		order[j+1], widths[j+1] = d, w
	}
	return order
}

// AppendSurvivors appends ids[i] for every bit i set in bits to dst and
// returns the extended slice — the shared bitmap-to-answer step after the
// filter kernels have narrowed a cluster's candidates.
//
//ac:noalloc
func AppendSurvivors(dst []uint32, ids []uint32, bits []uint64) []uint32 {
	for w, word := range bits {
		base := w << 6
		for word != 0 {
			j := mbits.TrailingZeros64(word)
			word &= word - 1
			dst = append(dst, ids[base+j])
		}
	}
	return dst
}

// FilterDim dispatches to the relation's kernel for one dimension column.
//
//ac:noalloc
func FilterDim(rel Relation, lo, hi []float32, qlo, qhi float32, bits []uint64) int {
	switch rel {
	case Intersects:
		return FilterIntersects(lo, hi, qlo, qhi, bits)
	case ContainedBy:
		return FilterContainedBy(lo, hi, qlo, qhi, bits)
	case Encloses:
		return FilterEncloses(lo, hi, qlo, qhi, bits)
	default:
		return 0
	}
}
