package accluster

import (
	"fmt"
	"sync"

	"accluster/internal/cost"
	"accluster/internal/geom"
)

// accessMethod is the single-threaded surface of a baseline access method:
// internal/seqscan and internal/rstar.
type accessMethod interface {
	Insert(id uint32, r geom.Rect) error
	Delete(id uint32) bool
	Get(id uint32) (geom.Rect, bool)
	Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error
	Len() int
	Dims() int
	Meter() cost.Meter
	ResetMeter()
}

// baseline is what the paper's baselines share: one mutex serializing every
// call into a single-threaded access method, and the Index surface built on
// the method's Search. SeqScan and RStar embed it and add only their
// constructors and structure inspectors.
type baseline struct {
	mu sync.Mutex
	am accessMethod

	// The callbacks SearchIDsAppend and Count hand to am.Search, built once
	// and used under mu: a callback built per query would escape through
	// the interface call and allocate.
	ids     []uint32
	n       int
	collect func(id uint32) bool
	tally   func(id uint32) bool
}

// init binds the baseline to its access method. It must run on the
// baseline's final address (the callbacks capture it).
func (b *baseline) init(am accessMethod) {
	b.am = am
	b.collect = func(id uint32) bool { b.ids = append(b.ids, id); return true }
	b.tally = func(uint32) bool { b.n++; return true }
}

// Insert adds an object.
func (b *baseline) Insert(id uint32, r Rect) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.am.Insert(id, r)
}

// Update replaces the rectangle stored under id by a delete and an insert;
// it returns an error wrapping ErrNotFound if the id is absent. The
// rectangle is validated first, so a failed update never drops the object.
func (b *baseline) Update(id uint32, r Rect) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.Dims() != b.am.Dims() || !r.Valid() {
		return fmt.Errorf("accluster: invalid %d-dim rectangle for %d-dim index", r.Dims(), b.am.Dims())
	}
	if !b.am.Delete(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return b.am.Insert(id, r)
}

// Delete removes an object, reporting whether it existed.
func (b *baseline) Delete(id uint32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.am.Delete(id)
}

// Get returns the rectangle stored under id.
func (b *baseline) Get(id uint32) (Rect, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.am.Get(id)
}

// Search calls emit for every object satisfying the relation with q; emit
// returning false stops the search. The sequential scan visits the whole
// collection; the R*-tree walks the nodes whose bounds can qualify.
//
//ac:noalloc
func (b *baseline) Search(q Rect, rel Relation, emit func(id uint32) bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.am.Search(q, rel, emit)
}

// SearchIDs collects all qualifying identifiers.
func (b *baseline) SearchIDs(q Rect, rel Relation) ([]uint32, error) {
	return b.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends all qualifying identifiers to dst and returns the
// extended slice; with a reused dst of sufficient capacity it allocates
// nothing.
//
//ac:noalloc
func (b *baseline) SearchIDsAppend(dst []uint32, q Rect, rel Relation) ([]uint32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appendLocked(dst, q, rel)
}

// appendLocked runs one search, appending its answers to dst. The caller
// holds mu.
func (b *baseline) appendLocked(dst []uint32, q Rect, rel Relation) ([]uint32, error) {
	b.ids = dst
	err := b.am.Search(q, rel, b.collect)
	dst, b.ids = b.ids, nil // do not pin the caller's buffer
	return dst, err
}

// SearchIDsBatch answers every query of the batch by looping the
// single-query search under one lock acquisition (the baselines have no
// batch plane to exploit), so answers and per-query charges are those of
// looped SearchIDsAppend calls. Unlike the adaptive engines, which validate
// the whole batch up front, a mid-batch error leaves the earlier queries
// executed and charged; dst is reset so no partial results escape.
//
//ac:noalloc
func (b *baseline) SearchIDsBatch(dst *BatchResult, qs []Rect, rel Relation) (*BatchResult, error) {
	if dst == nil {
		//acvet:ignore noalloc nil-dst convenience; steady-state callers pass a reused BatchResult
		dst = new(BatchResult)
	}
	dst.b.Reset(len(qs))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, q := range qs {
		ids, err := b.appendLocked(dst.b.IDs, q, rel)
		if err != nil {
			dst.b.Reset(len(qs))
			return dst, err
		}
		dst.b.IDs = ids
		dst.b.Off[i+1] = int32(len(ids))
	}
	return dst, nil
}

// Count returns the number of qualifying objects.
//
//ac:noalloc
func (b *baseline) Count(q Rect, rel Relation) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n = 0
	err := b.am.Search(q, rel, b.tally)
	return b.n, err
}

// Len returns the number of stored objects.
func (b *baseline) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.am.Len()
}

// Dims returns the data space dimensionality.
func (b *baseline) Dims() int { return b.am.Dims() }

// Stats returns a snapshot of the operation counters. Partitions is the
// tree's node count, or 1 for the sequential scan.
func (b *baseline) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	partitions := 1
	if tree, ok := b.am.(interface{ Nodes() int }); ok {
		partitions = tree.Nodes()
	}
	return statsFrom(b.am.Meter(), b.am.Len(), partitions, b.am.Dims())
}

// ResetStats zeroes the operation counters.
func (b *baseline) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.am.ResetMeter()
}
