package sig

import (
	mbits "math/bits"
	"sort"

	"accluster/internal/cost"
	"accluster/internal/geom"
)

// Batched signature matching: one pass over the flat signature mirror for N
// queries. The single-query MatchBounds streams the mirror per query, so a
// batch of N pays N scans of the same 4·dims·clusters floats. The batch
// kernel transposes the member-verification layout onto the query set
// instead: the N query rectangles become per-dimension coordinate columns
// (BatchQueries), each signature's bounds become the scalar "query" of the
// geom block-scan kernels, and a per-signature bitmap of surviving queries is
// narrowed one dimension at a time — switching to scalar per-query completion
// once few queries survive, since a selective dimension usually leaves a
// handful of survivors that die within a dimension or two. The mirror is read
// once per batch and the per-(signature,query) conditions are bit-identical
// to MatchBounds, so the matched set per query — and therefore every
// downstream meter and statistics increment — equals the looped single-query
// scan.

// BatchQueries is the query-coordinate SoA of one batched selection: for each
// dimension d, LoCol[d·N+i] and HiCol[d·N+i] hold query i's interval in that
// dimension. When the batch holds more than one query and every rectangle is
// a point (Min == Max in every dimension, no NaNs), Points is set and
// Key/Perm additionally hold, per dimension, the batch's coordinates in
// ascending order with the original query index of each — the sorted view
// the point kernel binary-searches instead of running columnar passes. The
// sort is what batching buys: its cost is paid once per batch and amortizes
// over every signature in the mirror. A batch of one has nothing to
// amortize it over (MatchBoundsBatch scans it with MatchBounds), so it
// builds no sorted view.
//
//ac:scratch
type BatchQueries struct {
	Dims, N      int
	LoCol, HiCol []float32
	Points       bool
	Key          []float32
	Perm         []int32
	srt          dimSorter
}

// dimSorter sorts one dimension's Key slice ascending, carrying Perm along.
type dimSorter struct {
	key  []float32
	perm []int32
}

func (s *dimSorter) Len() int           { return len(s.key) }
func (s *dimSorter) Less(i, j int) bool { return s.key[i] < s.key[j] }
func (s *dimSorter) Swap(i, j int) {
	s.key[i], s.key[j] = s.key[j], s.key[i]
	s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
}

// Reset rebuilds the SoA for a new batch, reusing the backing arrays. All
// rectangles must have dims dimensions (the caller validates).
//
//ac:noalloc
func (bq *BatchQueries) Reset(qs []geom.Rect, dims int) {
	n := len(qs)
	bq.Dims, bq.N = dims, n
	if cap(bq.LoCol) < dims*n {
		bq.LoCol = make([]float32, 0, dims*n) //acvet:ignore noalloc amortized growth of the query-column arena
		bq.HiCol = make([]float32, 0, dims*n) //acvet:ignore noalloc amortized growth of the query-column arena
	}
	bq.LoCol, bq.HiCol = bq.LoCol[:dims*n], bq.HiCol[:dims*n]
	points := true
	for d := 0; d < dims; d++ {
		lo, hi := bq.LoCol[d*n:d*n+n], bq.HiCol[d*n:d*n+n]
		for i, q := range qs {
			mn, mx := q.Min[d], q.Max[d]
			lo[i], hi[i] = mn, mx
			// mn != mn catches NaN, which would break the sorted
			// order the point kernel's binary searches rely on.
			if mn != mx || mn != mn {
				points = false
			}
		}
	}
	bq.Points = points && n > 1
	if !bq.Points {
		return
	}
	if cap(bq.Key) < dims*n {
		bq.Key = make([]float32, 0, dims*n) //acvet:ignore noalloc amortized growth of the sorted-coordinate arena
		bq.Perm = make([]int32, 0, dims*n)  //acvet:ignore noalloc amortized growth of the sort-permutation arena
	}
	bq.Key, bq.Perm = bq.Key[:dims*n], bq.Perm[:dims*n]
	copy(bq.Key, bq.LoCol)
	for d := 0; d < dims; d++ {
		perm := bq.Perm[d*n : d*n+n]
		for i := range perm {
			perm[i] = int32(i)
		}
		bq.srt.key, bq.srt.perm = bq.Key[d*n:d*n+n], perm
		sort.Sort(&bq.srt)
	}
	bq.srt.key, bq.srt.perm = nil, nil
}

// MaxSelectorDims is the largest dimensionality the per-signature dimension
// selectors can encode (they store dimension numbers as bytes). Callers with
// more dimensions simply skip maintaining selectors; the point kernel falls
// back to scanning widths inline.
const MaxSelectorDims = 256

// narrowestPair returns the dimensions of b (one signature's bounds block)
// with the narrowest and second-narrowest membership interval [b[4d+o0],
// b[4d+o1]], the order the point kernel probes dimensions in. best2 is -1
// when dims == 1. Ties and NaN widths resolve to the earlier dimension —
// a selectivity choice, never a correctness one.
func narrowestPair(b []float32, dims, o0, o1 int) (best, best2 int) {
	bw := b[o1] - b[o0]
	best2 = -1
	var b2w float32
	for d := 1; d < dims; d++ {
		w := b[4*d+o1] - b[4*d+o0]
		if w < bw || best2 < 0 {
			if w < bw {
				best2, b2w = best, bw
				best, bw = d, w
			} else {
				best2, b2w = d, w
			}
		} else if w < b2w {
			best2, b2w = d, w
		}
	}
	return best, best2
}

// AppendSelectors appends the 4-byte dimension-selector block of one
// signature's bounds block b (stride 4·dims floats) to dst: the narrowest and
// second-narrowest membership dimensions for the Intersects/Encloses interval
// [aLo,bHi] and for the ContainedBy interval [bLo,aHi], in that order. The
// selectors depend only on the signature, so maintaining them alongside the
// mirror (one computation per materialization) lets every batch skip the
// per-signature width scan. A missing runner-up (dims == 1) is encoded as the
// best dimension itself. dims must be at most MaxSelectorDims.
//
//ac:noalloc
func AppendSelectors(dst []uint8, b []float32, dims int) []uint8 {
	bIE, b2IE := narrowestPair(b, dims, 0, 3)
	bCB, b2CB := narrowestPair(b, dims, 2, 1)
	if b2IE < 0 {
		b2IE = bIE
	}
	if b2CB < 0 {
		b2CB = bCB
	}
	return append(dst, uint8(bIE), uint8(b2IE), uint8(bCB), uint8(b2CB))
}

// BatchMatch is the cluster-major output of MatchBoundsBatch: Clusters lists
// the mirror positions matching at least one query (in mirror order), QOff
// has one entry per matched cluster plus a final sentinel, and
// QIdx[QOff[j]:QOff[j+1]] are the batch-local indices of the queries cluster
// Clusters[j] matches, ascending. Flat slices so a pooled caller reuses the
// arenas across batches.
//
//ac:scratch
type BatchMatch struct {
	Clusters []int32
	QOff     []int32
	QIdx     []int32
}

// Reset empties the match for reuse.
//
//ac:noalloc
func (m *BatchMatch) Reset() {
	m.Clusters = m.Clusters[:0]
	m.QOff = append(m.QOff[:0], 0)
	m.QIdx = m.QIdx[:0]
}

// filterQueriesDim narrows the query-survivor bitmap to the queries whose
// interval in dimension d satisfies the relation's signature condition for
// bounds block b, by mapping the condition onto the geom block-scan kernels
// over the query columns. The mappings mirror MatchBounds exactly:
//
//   - Intersects keeps aLo ≤ qhi && qlo ≤ bHi — FilterIntersects with the
//     scalar interval [aLo,bHi].
//   - ContainedBy keeps aHi ≥ qlo && bLo ≤ qhi — FilterIntersects with the
//     scalar interval [bLo,aHi].
//   - Encloses keeps aLo ≤ qlo && qhi ≤ bHi — FilterContainedBy with the
//     scalar interval [aLo,bHi].
//
//ac:noalloc
func filterQueriesDim(rel geom.Relation, b []float32, bq *BatchQueries, d int, bits []uint64) int {
	n := bq.N
	lo, hi := bq.LoCol[d*n:d*n+n], bq.HiCol[d*n:d*n+n]
	switch rel {
	case geom.Intersects:
		return geom.FilterIntersects(lo, hi, b[4*d], b[4*d+3], bits)
	case geom.ContainedBy:
		return geom.FilterIntersects(lo, hi, b[4*d+2], b[4*d+1], bits)
	case geom.Encloses:
		return geom.FilterContainedBy(lo, hi, b[4*d], b[4*d+3], bits)
	}
	return 0
}

// matchQueryTail finishes one surviving query scalar: it applies the
// per-dimension signature condition (the same conditions filterQueriesDim
// applies columnar) for dimensions d0..dims-1 to query qi, with the
// single-query kernel's per-dimension early exit.
//
//ac:noalloc
func matchQueryTail(rel geom.Relation, b []float32, bq *BatchQueries, qi, d0 int) bool {
	n, dims := bq.N, bq.Dims
	switch rel {
	case geom.Intersects:
		for d := d0; d < dims; d++ {
			if !(b[4*d] <= bq.HiCol[d*n+qi] && bq.LoCol[d*n+qi] <= b[4*d+3]) {
				return false
			}
		}
	case geom.ContainedBy:
		for d := d0; d < dims; d++ {
			if !(b[4*d+2] <= bq.HiCol[d*n+qi] && bq.LoCol[d*n+qi] <= b[4*d+1]) {
				return false
			}
		}
	case geom.Encloses:
		for d := d0; d < dims; d++ {
			if !(b[4*d] <= bq.LoCol[d*n+qi] && bq.HiCol[d*n+qi] <= b[4*d+3]) {
				return false
			}
		}
	}
	return true
}

// MatchBoundsBatch scans a flat signature mirror — n signatures stored as
// 4·dims contiguous floats [aLo,aHi,bLo,bHi] per dimension — once for every
// query in bq, appending the cluster-major matches to out. bits is
// caller-provided scratch of at least geom.BitmapWords(bq.N) words; only that
// prefix is used, so stale words past it never leak into a match. sel, when
// it holds exactly 4·n bytes, is the mirror's precomputed dimension-selector
// side array (AppendSelectors per signature); pass nil (or an array of any
// other length) to have the point kernel scan widths inline instead. For every
// query i the set {c : i ∈ out queries of c} equals MatchBounds(sb, n, dims,
// qs[i], rel, nil), in the same mirror order.
//
// Per signature the kernel stays columnar (one branchless pass over the
// query columns per dimension) while more than a quarter of the batch survives,
// then switches to scalar completion of the surviving queries with the
// single-query early exit — the shape that wins when dimensions are
// selective and most of the batch dies in the first pass. A batch of one
// runs MatchBounds instead: its query columns are the rectangle's own
// bounds, and one-lane columnar passes would cost a kernel call per
// dimension of every signature.
//
//ac:noalloc
func MatchBoundsBatch(sb []float32, n, dims int, bq *BatchQueries, rel geom.Relation, sel []uint8, bits []uint64, out *BatchMatch) {
	out.Reset()
	if bq.N == 0 {
		return
	}
	if bq.N == 1 {
		out.Clusters = MatchBounds(sb, n, dims, geom.Rect{Min: bq.LoCol, Max: bq.HiCol}, rel, out.Clusters)
		for i := range out.Clusters {
			out.QIdx = append(out.QIdx, 0)
			out.QOff = append(out.QOff, int32(i+1))
		}
		return
	}
	if bq.Points {
		matchPointsBatch(sb, n, dims, bq, rel, sel, out)
		return
	}
	bits = bits[:geom.BitmapWords(bq.N)]
	stride := 4 * dims
	sparse := bq.N / 4
	for ci := 0; ci < n; ci++ {
		b := sb[ci*stride : ci*stride+stride]
		geom.InitBitmap(bits, bq.N)
		alive := filterQueriesDim(rel, b, bq, 0, bits)
		d := 1
		for ; d < dims && alive > sparse; d++ {
			alive = filterQueriesDim(rel, b, bq, d, bits)
		}
		if alive == 0 {
			continue
		}
		start := len(out.QIdx)
		if d == dims {
			out.QIdx = appendSetBits(out.QIdx, bits)
		} else {
			for w, word := range bits {
				base := int32(w << 6)
				for word != 0 {
					j := mbits.TrailingZeros64(word)
					word &= word - 1
					qi := base + int32(j)
					if matchQueryTail(rel, b, bq, int(qi), d) {
						out.QIdx = append(out.QIdx, qi)
					}
				}
			}
		}
		if len(out.QIdx) > start {
			out.Clusters = append(out.Clusters, int32(ci))
			out.QOff = append(out.QOff, int32(len(out.QIdx)))
		}
	}
}

// Sink collects the survivors of every verified (cluster, query) pair of a
// read phase that has no emit callback: query i's survivors are appended to
// IDs[i] when IDs is set, and otherwise only counted into Count, so a count
// builds no id list. The emit callback travels as its own parameter: as a
// Sink field it would share the escape of the IDs arena, moving every
// variable a caller's closure captures to the heap.
type Sink struct {
	IDs   [][]uint32
	Count int
}

// Scan is the read phase both engines share, in the pooled scratch of each:
// the batch set-up (Prepare) and the verification of one explored cluster
// against each query interested in it (Explore). The in-memory index and
// the disk engine run every selection through it — a single query is a
// batch of one — and differ only in where a cluster's columns come from, in
// the I/O they charge and in how they publish statistics.
//
//ac:scratch
type Scan struct {
	Q     BatchQueries // query-coordinate SoA of the batch
	Match BatchMatch   // cluster-major signature matches

	rel    geom.Relation
	qbits  []uint64   // query-survivor bitmap of the signature pass
	orders []int      // flat N×dims per-query dimension orders
	widths []float32  // sort keys backing orders
	bits   []uint64   // member-verification bitmap
	perQ   [][]uint32 // per-query id accumulators (Accumulate)
}

// Prepare is the batch set-up: it loads the query columns, matches them
// against the n signatures of the flat mirror sb in one pass
// (MatchBoundsBatch; sel is the mirror's selector side array) and orders
// each query's dimensions most-selective-first for verification. Every
// query must have dims dimensions and rel must be valid; the caller
// validates.
//
//ac:noalloc
func (s *Scan) Prepare(sb []float32, n, dims int, sel []uint8, qs []geom.Rect, rel geom.Relation) {
	nq := len(qs)
	s.rel = rel
	s.Q.Reset(qs, dims)
	qw := geom.BitmapWords(nq)
	if cap(s.qbits) < qw {
		//acvet:ignore noalloc amortized scratch growth; no alloc once qbits covers the batch size
		s.qbits = make([]uint64, qw)
	}
	MatchBoundsBatch(sb, n, dims, &s.Q, rel, sel, s.qbits[:qw], &s.Match)
	if cap(s.orders) < nq*dims {
		//acvet:ignore noalloc amortized scratch growth; no alloc once orders covers the batch size
		s.orders = make([]int, 0, nq*dims)
		//acvet:ignore noalloc amortized scratch growth; no alloc once widths covers the batch size
		s.widths = make([]float32, 0, nq*dims)
	}
	s.orders, s.widths = s.orders[:nq*dims], s.widths[:nq*dims]
	for qi := range qs {
		geom.QueryDimOrder(s.orders[qi*dims:qi*dims+dims], s.widths[qi*dims:qi*dims+dims], qs[qi], rel)
	}
}

// Explore verifies the members of matched cluster p of the prepared batch —
// ids, with coordinate columns lo[d] and hi[d] and signature bounds block
// b — against every query interested in it, in ascending query order, and
// delivers each query's survivors: one at a time, in member order, to emit
// when it is non-nil (only a batch of one carries one), otherwise to dst.
// Per (cluster, query) pair it charges m.Explorations and
// m.ObjectsVerified; the columns are walked in the query's dimension order,
// a dimension the signature proves for every member (BoundsImplyDim) is
// skipped, every other charges m.BytesVerified 8 bytes per member still
// alive and narrows the bitmap, and the walk stops at zero survivors; each
// survivor delivered charges m.Results. Explore reports false once emit
// returned false, which stops the read phase.
//
//ac:noalloc
func (s *Scan) Explore(p int, b []float32, ids []uint32, lo, hi [][]float32, emit func(id uint32) bool, dst *Sink, m *cost.Meter) bool {
	interested := s.Match.QIdx[s.Match.QOff[p]:s.Match.QOff[p+1]]
	n := len(ids)
	m.Explorations += int64(len(interested))
	m.ObjectsVerified += int64(len(interested)) * int64(n)
	if n == 0 {
		return true
	}
	words := geom.BitmapWords(n)
	if cap(s.bits) < words {
		//acvet:ignore noalloc amortized scratch growth; no alloc once bits reaches the largest cluster
		s.bits = make([]uint64, words)
	}
	bits := s.bits[:words]
	rel, nq, dims := s.rel, s.Q.N, s.Q.Dims
	loCol, hiCol, orders := s.Q.LoCol, s.Q.HiCol, s.orders
	for _, q32 := range interested {
		qi := int(q32)
		geom.InitBitmap(bits, n)
		alive := n
		for _, d := range orders[qi*dims : qi*dims+dims] {
			qlo, qhi := loCol[d*nq+qi], hiCol[d*nq+qi]
			if BoundsImplyDim(rel, b, d, qlo, qhi) {
				continue
			}
			m.BytesVerified += int64(alive) * 8
			if alive = geom.FilterDim(rel, lo[d], hi[d], qlo, qhi, bits); alive == 0 {
				break
			}
		}
		switch {
		case alive == 0:
		case emit != nil:
			for w, word := range bits {
				base := w << 6
				for word != 0 {
					j := mbits.TrailingZeros64(word)
					word &= word - 1
					m.Results++
					if !emit(ids[base+j]) {
						return false
					}
				}
			}
		case dst.IDs != nil:
			m.Results += int64(alive)
			dst.IDs[qi] = geom.AppendSurvivors(dst.IDs[qi], ids, bits)
		default:
			m.Results += int64(alive)
			dst.Count += alive
		}
	}
	return true
}

// Accumulate returns an IDs sink with one empty accumulator per query of a
// batch of nq, reusing the scan's buffers; Collect gathers them.
//
//ac:noalloc
func (s *Scan) Accumulate(nq int) Sink {
	if cap(s.perQ) < nq {
		//acvet:ignore noalloc amortized scratch growth; no alloc once perQ covers the batch size
		next := make([][]uint32, nq)
		copy(next, s.perQ)
		s.perQ = next
	}
	s.perQ = s.perQ[:nq]
	for i := range s.perQ {
		s.perQ[i] = s.perQ[i][:0]
	}
	return Sink{IDs: s.perQ}
}

// Collect concatenates the accumulators of the last Accumulate into dst,
// which must be Reset for the same number of queries.
//
//ac:noalloc
func (s *Scan) Collect(dst *geom.IDBatch) {
	for qi, ids := range s.perQ {
		dst.IDs = append(dst.IDs, ids...)
		dst.Off[qi+1] = int32(len(dst.IDs))
	}
}

// matchPointsBatch is the point-query fast path of MatchBoundsBatch. A
// degenerate query reduces queryMatchesDim to interval membership — the point
// must lie in [aLo,bHi] (Intersects, Encloses) or [bLo,aHi] (ContainedBy) of
// every dimension — so instead of columnar passes the kernel, per signature,
// picks the dimension with the narrowest membership interval, finds that
// dimension's surviving queries as a contiguous run of the batch's sorted
// coordinates (two binary searches, ~2·log₂N comparisons against N columnar
// lane evaluations), and completes the few survivors scalar with the
// single-query early exit. The matched set per query is bit-identical to
// MatchBounds.
//
// With a full-length sel side array the narrowest dimensions come
// precomputed (AppendSelectors) and the kernel touches only the searched
// dimension's 4 floats for most signatures; without one it scans the widths
// inline, reading the whole bounds block. The selector choice only steers
// which dimension is binary-searched and which the tail probes first —
// every dimension except the searched one is re-checked in the tail, so a
// stale or absent selector can never change the matched set.
//
//ac:noalloc
func matchPointsBatch(sb []float32, n, dims int, bq *BatchQueries, rel geom.Relation, sel []uint8, out *BatchMatch) {
	// Offsets of the membership interval inside a 4-float dimension block
	// [aLo,aHi,bLo,bHi]: aLo..bHi for Intersects/Encloses, bLo..aHi for
	// ContainedBy (see queryMatchesDim with qlo == qhi). so0 selects the
	// relation's selector pair inside a 4-byte selector block
	// [bestIE, best2IE, bestCB, best2CB].
	o0, o1, so0 := 0, 3, 0
	if rel == geom.ContainedBy {
		o0, o1, so0 = 2, 1, 2
	}
	if len(sel) != 4*n {
		sel = nil
	}
	nq := bq.N
	stride := 4 * dims
	for ci := 0; ci < n; ci++ {
		b := sb[ci*stride : ci*stride+stride]
		var best, best2 int
		if sel != nil {
			best, best2 = int(sel[ci*4+so0]), int(sel[ci*4+so0+1])
			if best2 == best { // dims == 1: no runner-up
				best2 = -1
			}
		} else {
			best, best2 = narrowestPair(b, dims, o0, o1)
		}
		lo, hi := b[4*best+o0], b[4*best+o1]
		key := bq.Key[best*nq : best*nq+nq]
		// first = first coordinate ≥ lo, then i advances to the first
		// coordinate > hi: the queries at [first,i) are exactly those
		// with lo ≤ p ≤ hi.
		i, j := 0, nq
		for i < j {
			h := int(uint(i+j) >> 1)
			if key[h] < lo {
				i = h + 1
			} else {
				j = h
			}
		}
		first := i
		j = nq
		for i < j {
			h := int(uint(i+j) >> 1)
			if key[h] <= hi {
				i = h + 1
			} else {
				j = h
			}
		}
		start := len(out.QIdx)
		perm := bq.Perm[best*nq : best*nq+nq]
		for pos := first; pos < i; pos++ {
			qi := perm[pos]
			if matchPointTail(b, bq, int(qi), best, best2, o0, o1) {
				out.QIdx = insertAscending(out.QIdx, start, qi)
			}
		}
		if len(out.QIdx) > start {
			out.Clusters = append(out.Clusters, int32(ci))
			out.QOff = append(out.QOff, int32(len(out.QIdx)))
		}
	}
}

// matchPointTail checks the membership interval of every dimension except the
// binary-searched one for point query qi, with the single-query early exit.
// The runner-up dimension skip2 (-1 when dims == 1) is tested first: it is
// the most selective of the remaining dimensions, so most survivors die on
// it.
//
//ac:noalloc
func matchPointTail(b []float32, bq *BatchQueries, qi, skip, skip2, o0, o1 int) bool {
	n, dims := bq.N, bq.Dims
	if skip2 >= 0 {
		p := bq.LoCol[skip2*n+qi]
		if !(b[4*skip2+o0] <= p && p <= b[4*skip2+o1]) {
			return false
		}
	}
	for d := 0; d < dims; d++ {
		if d == skip || d == skip2 {
			continue
		}
		p := bq.LoCol[d*n+qi]
		if !(b[4*d+o0] <= p && p <= b[4*d+o1]) {
			return false
		}
	}
	return true
}

// insertAscending appends v keeping dst[start:] ascending — the sorted-run
// iteration emits queries in coordinate order, while BatchMatch's contract is
// ascending query index within each cluster. Matches per cluster are few, so
// a shifting insert beats re-sorting.
//
//ac:noalloc
func insertAscending(dst []int32, start int, v int32) []int32 {
	dst = append(dst, v)
	i := len(dst) - 1
	for i > start && dst[i-1] > v {
		dst[i] = dst[i-1]
		i--
	}
	dst[i] = v
	return dst
}

// appendSetBits appends the index of every set bit in bits to dst, ascending.
//
//ac:noalloc
func appendSetBits(dst []int32, bits []uint64) []int32 {
	for w, word := range bits {
		base := int32(w << 6)
		for word != 0 {
			j := mbits.TrailingZeros64(word)
			word &= word - 1
			dst = append(dst, base+int32(j))
		}
	}
	return dst
}
