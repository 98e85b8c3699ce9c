package sig

import "accluster/internal/geom"

// InVar reports membership of x in the variation interval [lo,hi), closed at
// the top when hi is the domain maximum 1. Exported for engines that cache
// candidate bounds instead of re-deriving them through Split.Bounds.
func InVar(x, lo, hi float32) bool { return inVar(x, lo, hi) }

// MatchBounds scans a flat signature mirror — n signatures stored as 4·dims
// contiguous floats [aLo,aHi,bLo,bHi] per dimension — and appends the
// positions of the signatures matching the query to dst, in mirror order.
// The per-position conditions are the relation-specific necessary conditions
// of Signature.MatchesQuery, specialized per relation so the whole pass is
// one linear scan over contiguous floats with no per-entry dispatch. Both
// the in-memory index and the disk engine keep such a mirror; this is the
// shared A-term kernel of the cost model.
//
// The conditions are written in their positive form (not the De Morgan
// negation) so NaN query coordinates fail every dimension and match nothing
// — the behavior of Signature.MatchesQuery and of the batched kernels, which
// the batch-vs-looped differentials pin.
//
//ac:noalloc
func MatchBounds(sb []float32, n, dims int, q geom.Rect, rel geom.Relation, dst []int32) []int32 {
	stride := 4 * dims
	switch rel {
	case geom.Intersects:
		for ci := 0; ci < n; ci++ {
			b := sb[ci*stride : ci*stride+stride]
			ok := true
			for d := 0; d < dims; d++ {
				if !(b[4*d] <= q.Max[d] && q.Min[d] <= b[4*d+3]) {
					ok = false
					break
				}
			}
			if ok {
				dst = append(dst, int32(ci))
			}
		}
	case geom.ContainedBy:
		for ci := 0; ci < n; ci++ {
			b := sb[ci*stride : ci*stride+stride]
			ok := true
			for d := 0; d < dims; d++ {
				if !(b[4*d+1] >= q.Min[d] && b[4*d+2] <= q.Max[d]) {
					ok = false
					break
				}
			}
			if ok {
				dst = append(dst, int32(ci))
			}
		}
	case geom.Encloses:
		for ci := 0; ci < n; ci++ {
			b := sb[ci*stride : ci*stride+stride]
			ok := true
			for d := 0; d < dims; d++ {
				if !(b[4*d] <= q.Min[d] && b[4*d+3] >= q.Max[d]) {
					ok = false
					break
				}
			}
			if ok {
				dst = append(dst, int32(ci))
			}
		}
	}
	return dst
}

// BoundsImplyDim reports whether one signature's bounds block b — the
// 4·dims [aLo,aHi,bLo,bHi] layout MatchBounds scans — proves that every
// member of the cluster satisfies the relation's predicate in dimension d
// for the query interval [qlo,qhi], making the verification column scan of
// that dimension a provable no-op. Members have lo < aHi (lo ≤ 1 when aHi
// is the closed domain maximum) and hi ≥ bLo, which makes each condition
// sufficient for all members:
//
//   - Intersects: lo ≤ qhi forced by aHi ≤ qhi; qlo ≤ hi by qlo ≤ bLo.
//   - ContainedBy: lo ≥ qlo forced by aLo ≥ qlo; hi ≤ qhi by bHi ≤ qhi.
//   - Encloses: lo ≤ qlo forced by aHi ≤ qlo; hi ≥ qhi by bLo ≥ qhi.
//
// Both columnar engines (the in-memory core and the disk executor) share
// this skip, so their BytesVerified accounting agrees by construction.
//
//ac:noalloc
func BoundsImplyDim(rel geom.Relation, b []float32, d int, qlo, qhi float32) bool {
	switch rel {
	case geom.Intersects:
		return b[4*d+1] <= qhi && qlo <= b[4*d+2]
	case geom.ContainedBy:
		return b[4*d] >= qlo && b[4*d+3] <= qhi
	case geom.Encloses:
		return b[4*d+1] <= qlo && b[4*d+2] >= qhi
	}
	return false
}

// AppendBounds mirrors s onto the end of a flat signature mirror in the
// layout MatchBounds scans.
//
//ac:noalloc
func AppendBounds(dst []float32, s Signature) []float32 {
	for d := 0; d < s.Dims(); d++ {
		dst = append(dst, s.ALo[d], s.AHi[d], s.BLo[d], s.BHi[d])
	}
	return dst
}
