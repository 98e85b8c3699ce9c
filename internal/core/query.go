package core

import (
	"fmt"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// SearchRead executes a spatial selection (Fig. 5): every materialized
// cluster's signature is checked against the query (one linear scan of the
// flat signature mirror); matching clusters are explored and their members
// verified by the columnar block-scan kernels, one dimension column at a
// time with the most selective dimensions first. emit is called once per
// qualifying object; returning false stops early (the statistics are still
// recorded). emit must not call back into the same index (a reentrant
// exclusive operation panics).
//
// SearchRead is safe to run simultaneously with other *Read queries on the
// same index (the caller typically holds a shared lock excluding
// mutations). The statistics updates for the explored clusters and their
// virtually explored candidate subclusters are recorded and queued rather
// than applied; they take effect when an exclusive holder drains them
// (every mutating operation does, as do DrainStats and TryDrainStats). A
// single-owner caller calls DrainStats after each read.
//
//ac:noalloc
func (ix *Index) SearchRead(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return ix.searchOne(q, rel, emit, nil)
}

// SearchIDsAppendRead appends the identifiers of all qualifying objects to
// dst and returns the extended slice. It bypasses the per-object emit
// indirection, and reusing the returned slice across calls makes
// steady-state selections allocation-free once its capacity covers the
// answer sets. See SearchRead for the publication contract.
//
//ac:noalloc
func (ix *Index) SearchIDsAppendRead(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids := [1][]uint32{dst}
	out := sig.Sink{IDs: ids[:]}
	err := ix.searchOne(q, rel, nil, &out)
	return ids[0], err
}

// CountRead returns the number of objects satisfying the selection. It sums
// the per-cluster survivor counts of the block scan directly — no ids are
// extracted or buffered. See SearchRead for the publication contract.
//
//ac:noalloc
func (ix *Index) CountRead(q geom.Rect, rel geom.Relation) (int, error) {
	var out sig.Sink
	err := ix.searchOne(q, rel, nil, &out)
	return out.Count, err
}

// searchOne runs one query as a batch of one, delivering its answer to emit,
// or to dst when emit is nil, and queues its record.
//
//ac:noalloc
func (ix *Index) searchOne(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, dst *sig.Sink) error {
	if q.Dims() != ix.cfg.Dims {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: query has %d dims, index has %d", q.Dims(), ix.cfg.Dims)
	}
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: invalid relation %v", rel)
	}
	bc := ix.getBatchScratch()
	bc.one[0] = q
	ix.batchRead(bc, bc.one[:], rel, emit, dst)
	bc.one[0] = geom.Rect{}
	ix.publish(bc)
	return nil
}

// recordCandidateStats records the candidate subclusters virtually explored
// by the query into the statistics delta; the matching indicators are
// incremented when the delta is applied. A candidate matches when its
// refined dimension meets the relation's necessary condition
// (Split.MatchesQueryDim), which tests one start-side and one end-side cut
// against the query. The cuts are non-decreasing, so on each grid the
// matched start cells and end cells are a prefix or a suffix, and each row
// contributes one contiguous run of candidate indices.
//
//ac:noalloc
func recordCandidateStats(c *Cluster, q geom.Rect, rel geom.Relation, d *statDelta) {
	cs := &c.cands
	for _, g := range cs.grid {
		a, b, rows := cs.sides(g)
		qlo, qhi := q.Min[g.dim], q.Max[g.dim]
		ia0, ia1, ib0, ib1 := 0, int(g.fa), 0, int(g.fb)
		switch rel {
		case geom.Intersects: // aLo ≤ qhi and qlo ≤ bHi
			ia1 = prefixLE(a[:g.fa], qhi)
			ib0 = suffixGE(b[1:], qlo)
		case geom.ContainedBy: // aHi ≥ qlo and bLo ≤ qhi
			ia0 = suffixGE(a[1:], qlo)
			ib1 = prefixLE(b[:g.fb], qhi)
		case geom.Encloses: // aLo ≤ qlo and bHi ≥ qhi
			ia1 = prefixLE(a[:g.fa], qlo)
			ib0 = suffixGE(b[1:], qhi)
		}
		for ia := ia0; ia < ia1; ia++ {
			end := rows[ia+1] - g.fb
			for k := max(end+int32(ib0), rows[ia]); k < end+int32(ib1); k++ {
				d.cands = append(d.cands, k)
			}
		}
	}
}
