// Package sig implements cluster signatures and the clustering function of
// the paper (§4). A signature stores, for every dimension, a variation
// interval for object interval starts ([amin,amax]) and one for object
// interval ends ([bmin,bmax]). Objects whose per-dimension start/end fall in
// the corresponding variation intervals match the signature; queries match
// through relation-specific necessary conditions, so signature pruning never
// produces false negatives.
//
// Variation intervals are half-open [min,max) except when the upper bound is
// the domain maximum 1, where they are closed. This convention makes nested
// subdivision exact (paper §4.2 Example 3 uses the same scheme) and lets the
// root signature accept every object.
package sig

import (
	"fmt"
	"strings"

	"accluster/internal/geom"
)

// Signature describes the grouping characteristics of a cluster. All four
// slices have the same length (the dimensionality). The zero value is not
// usable; construct with Root or Child.
type Signature struct {
	ALo, AHi []float32 // variation interval for interval starts, per dim
	BLo, BHi []float32 // variation interval for interval ends, per dim
}

// Root returns the signature of the root cluster: complete domains in all
// dimensions, accepting any spatial object (§4.1 Example 1).
func Root(dims int) Signature {
	s := Signature{
		ALo: make([]float32, dims), AHi: make([]float32, dims),
		BLo: make([]float32, dims), BHi: make([]float32, dims),
	}
	for d := 0; d < dims; d++ {
		s.AHi[d] = 1
		s.BHi[d] = 1
	}
	return s
}

// Dims returns the dimensionality of s.
func (s Signature) Dims() int { return len(s.ALo) }

// Clone returns a deep copy of s.
func (s Signature) Clone() Signature {
	c := Signature{
		ALo: append([]float32(nil), s.ALo...),
		AHi: append([]float32(nil), s.AHi...),
		BLo: append([]float32(nil), s.BLo...),
		BHi: append([]float32(nil), s.BHi...),
	}
	return c
}

// Equal reports whether s and o have identical variation intervals.
func (s Signature) Equal(o Signature) bool {
	if s.Dims() != o.Dims() {
		return false
	}
	for d := range s.ALo {
		if s.ALo[d] != o.ALo[d] || s.AHi[d] != o.AHi[d] ||
			s.BLo[d] != o.BLo[d] || s.BHi[d] != o.BHi[d] {
			return false
		}
	}
	return true
}

// IsRoot reports whether s places no constraint on any dimension.
func (s Signature) IsRoot() bool {
	for d := range s.ALo {
		if s.ALo[d] != 0 || s.AHi[d] != 1 || s.BLo[d] != 0 || s.BHi[d] != 1 {
			return false
		}
	}
	return true
}

// Constrained reports whether dimension d carries a real grouping constraint.
func (s Signature) Constrained(d int) bool {
	return s.ALo[d] != 0 || s.AHi[d] != 1 || s.BLo[d] != 0 || s.BHi[d] != 1
}

// inVar reports membership of x in the variation interval [lo,hi), closed at
// the top when hi is the domain maximum 1.
func inVar(x, lo, hi float32) bool {
	if x < lo || x > hi {
		return false
	}
	if x == hi {
		return hi == 1
	}
	return true
}

// MatchesObject reports whether the object r qualifies for s: in every
// dimension its start lies in [ALo,AHi) and its end in [BLo,BHi).
func (s Signature) MatchesObject(r geom.Rect) bool {
	for d := range s.ALo {
		if !inVar(r.Min[d], s.ALo[d], s.AHi[d]) || !inVar(r.Max[d], s.BLo[d], s.BHi[d]) {
			return false
		}
	}
	return true
}

// queryMatchesDim evaluates the per-dimension necessary condition for a
// query interval [qlo,qhi] to possibly select some object matching the
// variation intervals [alo,ahi) x [blo,bhi). The conditions are conservative
// (closed comparisons), so pruning never loses answers.
func queryMatchesDim(rel geom.Relation, qlo, qhi, alo, ahi, blo, bhi float32) bool {
	switch rel {
	case geom.Intersects:
		// Some object with lo ≥ alo and hi ≤ bhi can overlap [qlo,qhi]
		// iff alo ≤ qhi and qlo ≤ bhi.
		return alo <= qhi && qlo <= bhi
	case geom.ContainedBy:
		// Need an object with lo ≥ qlo (possible iff ahi ≥ qlo) and
		// hi ≤ qhi (possible iff blo ≤ qhi).
		return ahi >= qlo && blo <= qhi
	case geom.Encloses:
		// Need an object with lo ≤ qlo (possible iff alo ≤ qlo) and
		// hi ≥ qhi (possible iff bhi ≥ qhi).
		return alo <= qlo && bhi >= qhi
	default:
		return false
	}
}

// MatchesQuery reports whether a query with rectangle q and the given
// relation must explore a cluster carrying signature s.
func (s Signature) MatchesQuery(q geom.Rect, rel geom.Relation) bool {
	for d := range s.ALo {
		if !queryMatchesDim(rel, q.Min[d], q.Max[d], s.ALo[d], s.AHi[d], s.BLo[d], s.BHi[d]) {
			return false
		}
	}
	return true
}

// Covers reports whether every object matching sub necessarily matches s
// (the backward compatibility property of the clustering function, §3.3).
// It holds when each of s's variation intervals contains sub's.
func (s Signature) Covers(sub Signature) bool {
	if s.Dims() != sub.Dims() {
		return false
	}
	for d := range s.ALo {
		if sub.ALo[d] < s.ALo[d] || sub.AHi[d] > s.AHi[d] ||
			sub.BLo[d] < s.BLo[d] || sub.BHi[d] > s.BHi[d] {
			return false
		}
	}
	return true
}

// String renders the constrained dimensions of s compactly.
func (s Signature) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for d := range s.ALo {
		if !s.Constrained(d) {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "d%d[%.4g,%.4g):[%.4g,%.4g)", d+1, s.ALo[d], s.AHi[d], s.BLo[d], s.BHi[d])
	}
	if first {
		b.WriteString("root")
	}
	b.WriteByte('}')
	return b.String()
}
