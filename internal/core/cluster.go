// Package core implements the paper's primary contribution: the adaptive
// cost-based clustering index for multidimensional extended objects (§3–§6).
//
// The database is a flat set of materialized clusters, each carrying a
// signature (internal/sig), a sequential member store (column-major float32
// layout for data locality, so a query verifies one dimension of all members
// as one contiguous scan), and performance indicators for itself and for its
// virtual candidate subclusters. Queries scan all cluster signatures,
// explore matching clusters, verify members with the columnar block-scan
// kernels, and update statistics; every ReorgEvery queries the index
// reorganizes clusters by merging or splitting according to the cost model
// (internal/cost).
package core

import (
	"fmt"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// candSet stores the virtual candidate subclusters of one materialized
// cluster (paper §3.1) as one small grid per refined dimension. On a
// dimension the clustering function refines, the candidates are the
// feasible cells (ia, ib) of an fa×fb grid whose boundaries are the cuts of
// the start and end variation intervals (sig.Cuts, the bounds Split.Bounds
// derives). They are numbered in sig.Enumerate order — dimension by
// dimension, row ia by row, and within a row over its feasible end cells,
// which form a suffix — so cell (ia, ib) is candidate rows[ia+1]−fb+ib,
// feasible iff that is at least rows[ia].
//
// Only the grids (a few dozen bytes per refined dimension) and the two
// indicators are stored per cluster. Because the cuts are non-decreasing,
// the start and end cells a query matches on a dimension are a prefix or a
// suffix of each side, and an object lies in one cell per side (several
// only at the closed top, 1): recording a query or counting a member costs
// a few cut comparisons per dimension plus the matched runs, not a test
// per candidate.
type candSet struct {
	grid []gridDim
	cuts []float32 // per grid: fa+1 start cuts, then fb+1 end cuts
	rows []int32   // per grid: fa+1 row bounds; row ia is [rows[ia], rows[ia+1])
	n    []int32   // objects of the owner matching the candidate
	q    []float64 // decayed count of queries matching the candidate
}

// gridDim locates one refined dimension's grid in candSet.cuts and
// candSet.rows.
type gridDim struct {
	dim      int32 // the refined data-space dimension
	fa, fb   int32 // start and end cells (sig.Factor)
	cut, row int32 // offsets of the grid's cuts and row bounds
}

// build builds the candidate grids of signature s under division factor f.
// It checks the two properties the cell arithmetic relies on: every side's
// cuts are non-decreasing and at most 1, and every row's feasible cells are
// a suffix of the row. Both hold for every signature inside the unit domain
// (sig.Signature.Valid; Restore rejects any other), so a violation is a bug
// and panics.
func (cs *candSet) build(s sig.Signature, f int) {
	dims := s.Dims()
	ng, ncut, nrow := 0, 0, 0
	for d := 0; d < dims; d++ {
		fa, fb := sig.Factor(s.ALo[d], s.AHi[d], f), sig.Factor(s.BLo[d], s.BHi[d], f)
		if fa > 1 || fb > 1 {
			ng, ncut, nrow = ng+1, ncut+fa+fb+2, nrow+fa+1
		}
	}
	cs.grid = make([]gridDim, 0, ng)
	cs.cuts = make([]float32, 0, ncut)
	cs.rows = make([]int32, 0, nrow)
	k := int32(0)
	for d := 0; d < dims; d++ {
		fa, fb := sig.Factor(s.ALo[d], s.AHi[d], f), sig.Factor(s.BLo[d], s.BHi[d], f)
		if fa == 1 && fb == 1 {
			continue
		}
		g := gridDim{dim: int32(d), fa: int32(fa), fb: int32(fb), cut: int32(len(cs.cuts)), row: int32(len(cs.rows))}
		cs.cuts = sig.Cuts(cs.cuts, s.ALo[d], s.AHi[d], fa)
		cs.cuts = sig.Cuts(cs.cuts, s.BLo[d], s.BHi[d], fb)
		a, b, _ := cs.sides(g)
		if !ascendingToOne(a) || !ascendingToOne(b) {
			panic(fmt.Sprintf("core: signature %v: dimension %d cuts %v / %v are not non-decreasing up to 1", s, d, a, b))
		}
		for ia := 0; ia < fa; ia++ {
			cs.rows = append(cs.rows, k)
			for ib := 0; ib < fb; ib++ {
				if sig.Feasible(a[ia], b[ib+1]) {
					k++
				} else if k > cs.rows[len(cs.rows)-1] {
					panic(fmt.Sprintf("core: signature %v: dimension %d row %d has an infeasible cell after a feasible one", s, d, ia))
				}
			}
		}
		cs.rows = append(cs.rows, k)
		cs.grid = append(cs.grid, g)
	}
	cs.n = make([]int32, k)
	cs.q = make([]float64, k)
}

// ascendingToOne reports whether the cuts c are non-decreasing (NaN-free)
// and end at most at 1.
func ascendingToOne(c []float32) bool {
	for i := 1; i < len(c); i++ {
		if !(c[i-1] <= c[i]) {
			return false
		}
	}
	return c[len(c)-1] <= 1
}

// len returns the number of candidates.
func (cs *candSet) len() int { return len(cs.n) }

// sides returns grid g's start cuts, end cuts and row bounds.
//
//ac:noalloc
func (cs *candSet) sides(g gridDim) (a, b []float32, rows []int32) {
	a = cs.cuts[g.cut : g.cut+g.fa+1]
	b = cs.cuts[g.cut+g.fa+1 : g.cut+g.fa+g.fb+2]
	return a, b, cs.rows[g.row : g.row+g.fa+1]
}

// split returns the grid holding candidate k and the split naming it.
func (cs *candSet) split(k int) (gridDim, sig.Split) {
	for _, g := range cs.grid {
		_, _, rows := cs.sides(g)
		if int32(k) >= rows[g.fa] {
			continue
		}
		ia := int(g.fa) - 1
		for int32(k) < rows[ia] {
			ia--
		}
		ib := k - int(rows[ia+1]-g.fb)
		return g, sig.Split{Dim: int(g.dim), IA: ia, IB: ib, FA: int(g.fa), FB: int(g.fb)}
	}
	panic(fmt.Sprintf("core: candidate %d of %d", k, cs.len()))
}

// prefixLE returns the number of leading cuts at most x (0 for NaN x). The
// cuts are non-decreasing, so that is the number of cuts at most x, counted
// without a data-dependent branch.
//
//ac:noalloc
func prefixLE(c []float32, x float32) int {
	n := 0
	for _, v := range c {
		if v <= x {
			n++
		}
	}
	return n
}

// suffixGE returns the start of the trailing cuts at least x (len(c) when
// there are none, and for NaN x), counted like prefixLE.
//
//ac:noalloc
func suffixGE(c []float32, x float32) int {
	n := len(c)
	for _, v := range c {
		if v >= x {
			n--
		}
	}
	return n
}

// cells returns the cells [i0,i1) of one grid side, with cuts c, whose
// variation interval holds x: [c[i],c[i+1]), closed at the top when
// c[i+1] == 1 (sig.InVar). Below 1, x lies in at most one cell. x == 1 lies
// in every cell whose top cut is 1: the last cell, and also the zero-width
// cells at 1 and the cell under an interior cut that rounded to 1.
func cells(c []float32, x float32) (i0, i1 int) {
	f := len(c) - 1
	p := prefixLE(c, x)
	switch {
	case p == 0:
		return 0, 0
	case p <= f:
		return p - 1, p
	case x != 1 || c[f] != 1:
		return 0, 0
	}
	i0 = f - 1
	for i0 > 0 && c[i0] == 1 {
		i0--
	}
	return i0, f
}

// bump adds delta to the membership indicator of the feasible candidates
// among cells [ia0,ia1)×[ib0,ib1) of the grid with row bounds rows and fb
// end cells.
func (cs *candSet) bump(rows []int32, fb int32, ia0, ia1, ib0, ib1 int, delta int32) {
	for ia := ia0; ia < ia1; ia++ {
		end := rows[ia+1] - fb
		for ib := ib0; ib < ib1; ib++ {
			if k := end + int32(ib); k >= rows[ia] {
				cs.n[k] += delta
			}
		}
	}
}

// count adds delta to the membership indicator of every candidate holding
// member i of the coordinate columns lo, hi.
func (cs *candSet) count(lo, hi [][]float32, i int, delta int32) {
	for _, g := range cs.grid {
		a, b, rows := cs.sides(g)
		ia0, ia1 := cells(a, lo[g.dim][i])
		ib0, ib1 := cells(b, hi[g.dim][i])
		cs.bump(rows, g.fb, ia0, ia1, ib0, ib1, delta)
	}
}

// Cluster is a materialized group of objects accessed and checked together
// during spatial selections (§3.1). Members are stored sequentially in
// column-major (structure-of-arrays) order: ids[i] pairs with the
// per-dimension coordinate columns lo[d][i], hi[d][i]. The columnar layout
// lets a selection verify one dimension of every member as a single
// contiguous scan (internal/geom's Filter kernels) instead of striding
// through interleaved per-object records.
type Cluster struct {
	signature sig.Signature
	parent    *Cluster
	children  []*Cluster

	ids []uint32
	lo  [][]float32 // lo[d][i] = interval start of member i in dimension d
	hi  [][]float32 // hi[d][i] = interval end of member i in dimension d

	cands candSet
	q     float64 // decayed count of queries exploring this cluster

	// statsEpoch is the reorganization epoch q and cands.q were last aged
	// to; the deferred factor Decay^(Index.epoch−statsEpoch) is applied
	// when the cluster is next touched (syncStats).
	statsEpoch int64
	// createdEpoch is the reorganization epoch the cluster materialized
	// in. During that epoch the cluster is exempt from merge decisions
	// (the synchronous full pass never revisited same-round children
	// either): its inherited statistics still mirror the parent's, and
	// merging it straight back would waste the relocations and loop.
	createdEpoch int64

	pos     int  // index in Index.clusters (O(1) removal)
	removed bool // set when merged away

	// Reorganization scheduling: queued marks membership in the revisit
	// queue; prio is the benefit estimate cached at the previous revisit
	// that orders the queue (refreshed lazily when the cluster is
	// processed); activeSplit pins the candidate currently being
	// materialized in chunks (-1 when none) — other candidates are not
	// evaluated until it completes, because their membership indicators
	// still count the members the active split has yet to move out.
	queued      bool
	prio        float64
	activeSplit int
	// activeChild is the cluster the pinned split is filling (nil when
	// none); while set, that child is exempt from merge decisions — its
	// statistics still mirror the parent's until the transfer completes.
	activeChild *Cluster
	// splitCursor is the member index the active split's scan resumes
	// from (it walks downward), so chunked materializations stay O(n)
	// over the whole split instead of rescanning the membership per
	// chunk. It is a hint: mutations between chunks can shuffle members
	// behind it, and the scan wraps around once when the candidate's
	// indicator says members remain.
	splitCursor int
}

// Signature returns the cluster's grouping signature.
func (c *Cluster) Signature() sig.Signature { return c.signature }

// Parent returns the parent cluster (nil for the root).
func (c *Cluster) Parent() *Cluster { return c.parent }

// Len returns the number of member objects n(c).
func (c *Cluster) Len() int { return len(c.ids) }

// IDs returns the member identifiers (shared storage; do not mutate).
func (c *Cluster) IDs() []uint32 { return c.ids }

// Column returns the coordinate columns of dimension d (shared storage; do
// not mutate).
func (c *Cluster) Column(d int) (lo, hi []float32) { return c.lo[d], c.hi[d] }

// flatData materializes the members as one interleaved (row-major) block in
// the flat layout of internal/geom — the transpose used by snapshots and the
// on-device store format, which keep the pre-columnar representation.
func (c *Cluster) flatData() []float32 {
	dims := len(c.lo)
	out := make([]float32, geom.FlatLen(len(c.ids), dims))
	for d := 0; d < dims; d++ {
		lo, hi := c.lo[d], c.hi[d]
		for i := range lo {
			out[i*2*dims+2*d] = lo[i]
			out[i*2*dims+2*d+1] = hi[i]
		}
	}
	return out
}

// Candidates returns the number of candidate subclusters tracked.
func (c *Cluster) Candidates() int { return c.cands.len() }

// newCluster builds a cluster with the given signature and candidate set
// derived by the clustering function with division factor f.
func newCluster(s sig.Signature, f int) *Cluster {
	c := &Cluster{
		signature:   s,
		lo:          make([][]float32, s.Dims()),
		hi:          make([][]float32, s.Dims()),
		activeSplit: -1,
	}
	c.cands.build(s, f)
	return c
}

// reservedGrowth mirrors the paper's storage utilization rule (§6): freshly
// (re)located clusters reserve 20–30% free slots to avoid frequent moves. We
// size capacities at 125% of the live size.
func reservedCap(n int) int {
	if n < 4 {
		return n + 1
	}
	return n + n/4
}

// grow reallocates the member storage with the reservation rule applied.
func (c *Cluster) grow() {
	n := len(c.ids)
	grow := reservedCap(n + 1)
	ids := make([]uint32, n, grow)
	copy(ids, c.ids)
	c.ids = ids
	// One slab backs all coordinate columns, keeping them contiguous in
	// dimension order (the scan order of the verification kernels). The
	// three-index slices cap each column at its reserved slots, so appends
	// never bleed into the neighbouring column.
	slab := make([]float32, 2*len(c.lo)*grow)
	for d := range c.lo {
		loBase, hiBase := (2*d)*grow, (2*d+1)*grow
		lo := slab[loBase : loBase+n : loBase+grow]
		hi := slab[hiBase : hiBase+n : hiBase+grow]
		copy(lo, c.lo[d])
		copy(hi, c.hi[d])
		c.lo[d], c.hi[d] = lo, hi
	}
}

// appendObject adds one member and updates the candidate indicators.
func (c *Cluster) appendObject(id uint32, r geom.Rect) int {
	pos := c.appendCoords(id, r.Min, r.Max)
	c.cands.count(c.lo, c.hi, pos, 1)
	return pos
}

// appendCoords appends the raw member row without touching the candidate
// indicators; min/max are indexed per dimension.
func (c *Cluster) appendCoords(id uint32, min, max []float32) int {
	pos := len(c.ids)
	if cap(c.ids) == len(c.ids) {
		c.grow()
	}
	c.ids = append(c.ids, id)
	for d := range c.lo {
		c.lo[d] = append(c.lo[d], min[d])
		c.hi[d] = append(c.hi[d], max[d])
	}
	return pos
}

// appendFrom appends member i of src (same dimensionality) and updates the
// candidate indicators; merges move objects through this path.
func (c *Cluster) appendFrom(src *Cluster, i int) int {
	pos := c.appendRow(src, i)
	c.cands.count(c.lo, c.hi, pos, 1)
	return pos
}

// appendRow appends member i of src without touching the candidate
// indicators, copying straight between coordinate columns without
// materializing a Rect.
func (c *Cluster) appendRow(src *Cluster, i int) int {
	pos := len(c.ids)
	if cap(c.ids) == len(c.ids) {
		c.grow()
	}
	c.ids = append(c.ids, src.ids[i])
	for d := range c.lo {
		c.lo[d] = append(c.lo[d], src.lo[d][i])
		c.hi[d] = append(c.hi[d], src.hi[d][i])
	}
	return pos
}

// removeObjectAt swap-removes member i and updates candidate indicators.
// It returns the id that was moved into slot i (or 0 and false when the
// removed member was the last one).
func (c *Cluster) removeObjectAt(i int) (movedID uint32, moved bool) {
	c.cands.count(c.lo, c.hi, i, -1)
	return c.removeRow(i)
}

// removeRow swap-removes member i without touching the candidate
// indicators; see removeObjectAt.
func (c *Cluster) removeRow(i int) (movedID uint32, moved bool) {
	last := len(c.ids) - 1
	if i != last {
		c.ids[i] = c.ids[last]
		for d := range c.lo {
			c.lo[d][i] = c.lo[d][last]
			c.hi[d][i] = c.hi[d][last]
		}
		movedID, moved = c.ids[i], true
	}
	c.ids = c.ids[:last]
	for d := range c.lo {
		c.lo[d] = c.lo[d][:last]
		c.hi[d] = c.hi[d][:last]
	}
	return movedID, moved
}

// moveCounts moves member i of c from c's candidate indicators to those of
// child, the cluster materializing a candidate of c on dimension refined.
// Off that dimension the child's signature equals c's, so its grids are
// c's grids under its own candidate numbering: the member's cells there are
// found once and counted in both clusters. Call it while member i is still
// in c's columns.
func moveCounts(c, child *Cluster, i int, refined int32) {
	pc, cc := &c.cands, &child.cands
	j := 0 // child's grid for the next dimension c refines
	for _, g := range pc.grid {
		a, b, rows := pc.sides(g)
		x, y := c.lo[g.dim][i], c.hi[g.dim][i]
		ia0, ia1 := cells(a, x)
		ib0, ib1 := cells(b, y)
		pc.bump(rows, g.fb, ia0, ia1, ib0, ib1, -1)
		if j == len(cc.grid) || cc.grid[j].dim != g.dim {
			continue // the child leaves this dimension unrefined
		}
		h := cc.grid[j]
		j++
		ca, cb, crows := cc.sides(h)
		if g.dim == refined {
			ia0, ia1 = cells(ca, x)
			ib0, ib1 = cells(cb, y)
		}
		cc.bump(crows, h.fb, ia0, ia1, ib0, ib1, 1)
	}
}

// rectAt materializes member i as a Rect.
func (c *Cluster) rectAt(i, dims int) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		r.Min[d] = c.lo[d][i]
		r.Max[d] = c.hi[d][i]
	}
	return r
}

// detachChild removes ch from c.children.
func (c *Cluster) detachChild(ch *Cluster) {
	for i, x := range c.children {
		if x == ch {
			c.children[i] = c.children[len(c.children)-1]
			c.children = c.children[:len(c.children)-1]
			return
		}
	}
}
