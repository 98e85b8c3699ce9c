package sig

import "accluster/internal/geom"

// The clustering function (§4.2): given a cluster signature, candidate
// subcluster signatures are produced by picking one dimension, dividing both
// of its variation intervals into f subintervals (the division factor) and
// combining every feasible pair of subintervals. Candidates are virtual: a
// Split records only the dimension and the two subinterval indices, and the
// concrete bounds are derived from the parent signature on demand, keeping
// per-candidate state small (the paper keeps only performance indicators).

// Split identifies one candidate subcluster of a parent signature: the
// refined dimension and the subinterval chosen for the start-variation (IA)
// and end-variation (IB) intervals. FA and FB record how many subdivisions
// were used for each side (1 when a side is left unrefined because it is
// degenerate).
type Split struct {
	Dim    int
	IA, IB int
	FA, FB int
}

// subBound returns the k-th division bound of [lo,hi] cut into f parts.
// Endpoints are returned exactly to keep nested subdivision consistent.
func subBound(lo, hi float32, k, f int) float32 {
	switch k {
	case 0:
		return lo
	case f:
		return hi
	default:
		return lo + (hi-lo)*float32(k)/float32(f)
	}
}

// Cuts appends the f+1 division bounds of [lo,hi] cut into f parts to dst:
// cut k is the lower bound Split.Bounds derives for subinterval k and the
// upper bound it derives for subinterval k−1. For 0 ≤ lo ≤ hi ≤ 1 the cuts
// are non-decreasing and stay inside [lo,hi] (every rounding step is
// monotone), but adjacent cuts may coincide, and an interior cut may round
// to hi.
func Cuts(dst []float32, lo, hi float32, f int) []float32 {
	for k := 0; k <= f; k++ {
		dst = append(dst, subBound(lo, hi, k, f))
	}
	return dst
}

// Bounds derives the candidate's variation intervals for the refined
// dimension from the parent signature.
func (sp Split) Bounds(parent Signature) (aLo, aHi, bLo, bHi float32) {
	d := sp.Dim
	aLo = subBound(parent.ALo[d], parent.AHi[d], sp.IA, sp.FA)
	aHi = subBound(parent.ALo[d], parent.AHi[d], sp.IA+1, sp.FA)
	bLo = subBound(parent.BLo[d], parent.BHi[d], sp.IB, sp.FB)
	bHi = subBound(parent.BLo[d], parent.BHi[d], sp.IB+1, sp.FB)
	return
}

// Child materializes the candidate signature: the parent signature with the
// refined dimension's variation intervals replaced.
func (sp Split) Child(parent Signature) Signature {
	c := parent.Clone()
	aLo, aHi, bLo, bHi := sp.Bounds(parent)
	c.ALo[sp.Dim], c.AHi[sp.Dim] = aLo, aHi
	c.BLo[sp.Dim], c.BHi[sp.Dim] = bLo, bHi
	return c
}

// MatchesObjectDim checks whether an object whose refined-dimension interval
// is [lo,hi] qualifies for the candidate, assuming it already matches the
// parent signature (candidates differ from the parent only in sp.Dim).
func (sp Split) MatchesObjectDim(parent Signature, lo, hi float32) bool {
	aLo, aHi, bLo, bHi := sp.Bounds(parent)
	return inVar(lo, aLo, aHi) && inVar(hi, bLo, bHi)
}

// MatchesQueryDim checks whether a query already matching the parent
// signature also matches the candidate, by evaluating the relation condition
// on the refined dimension only.
func (sp Split) MatchesQueryDim(parent Signature, rel geom.Relation, qlo, qhi float32) bool {
	aLo, aHi, bLo, bHi := sp.Bounds(parent)
	return queryMatchesDim(rel, qlo, qhi, aLo, aHi, bLo, bHi)
}

// Enumerate produces every feasible candidate split of the parent signature
// with division factor f (§4.2). For each dimension both variation intervals
// are divided into f subintervals and all combinations are emitted, except:
//
//   - combinations that cannot host any object (the start subinterval lies
//     entirely above the end subinterval, so lo ≤ hi is impossible) — when
//     the two variation intervals coincide this symmetry leaves f(f+1)/2
//     combinations (§4.2 footnote 3);
//   - degenerate variation intervals (zero width) are not subdivided; if
//     both sides of a dimension are degenerate the dimension yields no
//     candidates;
//   - the identity combination equal to the parent signature.
//
// Candidates are emitted dimension by dimension, and within a dimension row
// by row (IA ascending, then IB ascending); for a Valid parent, each row's
// feasible cells form a suffix of the row. The result length is therefore
// at most dims·f².
func Enumerate(parent Signature, f int) []Split {
	if f < 2 {
		return nil
	}
	var out []Split
	for d := 0; d < parent.Dims(); d++ {
		fa, fb := Factor(parent.ALo[d], parent.AHi[d], f), Factor(parent.BLo[d], parent.BHi[d], f)
		if fa == 1 && fb == 1 {
			continue
		}
		for ia := 0; ia < fa; ia++ {
			for ib := 0; ib < fb; ib++ {
				sp := Split{Dim: d, IA: ia, IB: ib, FA: fa, FB: fb}
				aLo, _, _, bHi := sp.Bounds(parent)
				if Feasible(aLo, bHi) {
					out = append(out, sp)
				}
			}
		}
	}
	return out
}

// Factor returns the number of subintervals Enumerate divides the variation
// interval [lo,hi) into under division factor f: f, or 1 when the interval
// is left whole — degenerate (zero width), or too narrow for its first
// subinterval to be wider than zero in float32. A dimension whose start and
// end intervals both have factor 1 yields no candidates.
func Factor(lo, hi float32, f int) int {
	w := hi - lo
	if w <= 0 || lo+w/float32(f) == lo {
		return 1
	}
	return f
}

// Feasible reports whether a candidate whose start subinterval begins at aLo
// and whose end subinterval ends at bHi can host an object: some lo ≥ aLo
// and hi < bHi (≤ when bHi is the closed domain maximum 1) with lo ≤ hi.
func Feasible(aLo, bHi float32) bool {
	return !(aLo > bHi || (aLo == bHi && bHi != 1))
}
