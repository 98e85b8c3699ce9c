package core

import (
	"fmt"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// Search executes a spatial selection (Fig. 5): every materialized cluster's
// signature is checked against the query (one linear scan of the flat
// signature mirror); matching clusters are explored and their members
// verified by the columnar block-scan kernels, one dimension column at a
// time with the most selective dimensions first. Query statistics are
// updated for explored clusters and for their virtually explored candidate
// subclusters. emit is called once per qualifying object; returning false
// stops early (statistics and the reorganization schedule are still
// maintained). emit must not call back into the same index (the in-flight
// query defers its statistics publication; a reentrant exclusive operation
// panics).
//
// Search applies its statistics and runs scheduled maintenance as soon as
// its read phase ends, so it requires exclusive access. Concurrent callers
// holding a shared lock use SearchRead/SearchIDsAppendRead/CountRead, which
// defer publication.
func (ix *Index) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return ix.searchOne(q, rel, emit, nil, true)
}

// SearchRead is Search for concurrent callers: it is safe to run
// simultaneously with other *Read queries on the same index (the caller
// typically holds a shared lock excluding mutations). The query's
// statistics updates are recorded and queued rather than applied; they take
// effect when an exclusive holder drains them (every mutating operation
// does, as does TryDrainStats).
//
//ac:noalloc
func (ix *Index) SearchRead(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return ix.searchOne(q, rel, emit, nil, false)
}

// SearchIDsAppendRead is SearchIDsAppend for concurrent callers; see
// SearchRead for the publication contract.
//
//ac:noalloc
func (ix *Index) SearchIDsAppendRead(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids := [1][]uint32{dst}
	out := sig.Sink{IDs: ids[:]}
	err := ix.searchOne(q, rel, nil, &out, false)
	return ids[0], err
}

// CountRead is Count for concurrent callers; see SearchRead for the
// publication contract.
//
//ac:noalloc
func (ix *Index) CountRead(q geom.Rect, rel geom.Relation) (int, error) {
	var out sig.Sink
	err := ix.searchOne(q, rel, nil, &out, false)
	return out.Count, err
}

// Count returns the number of objects satisfying the selection. It sums the
// per-cluster survivor counts of the block scan directly — no ids are
// extracted or buffered.
func (ix *Index) Count(q geom.Rect, rel geom.Relation) (int, error) {
	var out sig.Sink
	err := ix.searchOne(q, rel, nil, &out, true)
	return out.Count, err
}

// SearchIDs collects the identifiers of all qualifying objects.
func (ix *Index) SearchIDs(q geom.Rect, rel geom.Relation) ([]uint32, error) {
	return ix.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst
// and returns the extended slice. It bypasses the per-object emit
// indirection, and reusing the returned slice across calls makes
// steady-state selections allocation-free once its capacity covers the
// answer sets.
func (ix *Index) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids := [1][]uint32{dst}
	out := sig.Sink{IDs: ids[:]}
	err := ix.searchOne(q, rel, nil, &out, true)
	return ids[0], err
}

// searchOne runs one query as a batch of one, delivering its answer to emit,
// or to dst when emit is nil. An exclusive caller (excl) first applies the
// queued publications and then applies its own record straight after the
// read phase; a concurrent caller queues it.
//
//ac:noalloc
func (ix *Index) searchOne(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, dst *sig.Sink, excl bool) error {
	if excl {
		ix.exclusivePrep()
	}
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
	ix.publish(bc, excl)
	return nil
}

// recordCandidateStats records the candidate subclusters virtually explored
// by the query (the relation-specific necessary conditions of
// sig.QueryDimMatch, specialized per relation so the pass over the candidate
// array carries no per-candidate dispatch) into the statistics delta; the
// matching indicators are incremented when the delta is applied.
//
//ac:noalloc
func recordCandidateStats(c *Cluster, q geom.Rect, rel geom.Relation, d *statDelta) {
	cs := &c.cands
	switch rel {
	case geom.Intersects:
		for i, dd := range cs.dim {
			if cs.aLo[i] <= q.Max[dd] && q.Min[dd] <= cs.bHi[i] {
				d.cands = append(d.cands, int32(i))
			}
		}
	case geom.ContainedBy:
		for i, dd := range cs.dim {
			if cs.aHi[i] >= q.Min[dd] && cs.bLo[i] <= q.Max[dd] {
				d.cands = append(d.cands, int32(i))
			}
		}
	case geom.Encloses:
		for i, dd := range cs.dim {
			if cs.aLo[i] <= q.Min[dd] && cs.bHi[i] >= q.Max[dd] {
				d.cands = append(d.cands, int32(i))
			}
		}
	}
}
