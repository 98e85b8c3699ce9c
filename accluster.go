package accluster

import (
	"fmt"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/rstar"
	"accluster/internal/seqscan"
	"accluster/internal/shard"
)

// Rect is a multidimensional extended object: a closed interval
// [Min[d], Max[d]] in every dimension of the unit domain.
type Rect = geom.Rect

// Relation is the spatial predicate of a selection.
type Relation = geom.Relation

// Spatial relations between a database object o and a query rectangle q.
const (
	// Intersects selects objects with o ∩ q ≠ ∅.
	Intersects = geom.Intersects
	// ContainedBy selects objects with o ⊆ q.
	ContainedBy = geom.ContainedBy
	// Encloses selects objects with o ⊇ q; use a point q for
	// point-enclosing queries.
	Encloses = geom.Encloses
)

// NewRect allocates a rectangle of the given dimensionality.
func NewRect(dims int) Rect { return geom.NewRect(dims) }

// MakeRect builds a rectangle from bound slices (copied).
func MakeRect(min, max []float32) (Rect, error) {
	if len(min) != len(max) || len(min) == 0 {
		return Rect{}, fmt.Errorf("accluster: mismatched bounds %d/%d", len(min), len(max))
	}
	r := geom.NewRect(len(min))
	copy(r.Min, min)
	copy(r.Max, max)
	if !r.Valid() {
		return Rect{}, fmt.Errorf("accluster: invalid rectangle %v", r)
	}
	return r, nil
}

// MustRect is MakeRect that panics on invalid input; intended for literals.
func MustRect(min, max []float32) Rect {
	r, err := MakeRect(min, max)
	if err != nil {
		panic(err)
	}
	return r
}

// Point builds a degenerate rectangle from point coordinates (copied).
func Point(p []float32) Rect { return geom.Point(p) }

// BatchResult carries the per-query answers of one batched selection
// (SearchIDsBatch) in a single flat buffer. Reusing one BatchResult across
// calls keeps steady-state batches allocation-free on the engines with a
// native batch plane; the per-query slices alias the shared buffer and stay
// valid until the next call that reuses the value.
type BatchResult struct {
	b geom.IDBatch
}

// Queries returns the number of queries answered by the batch.
func (r *BatchResult) Queries() int { return r.b.Queries() }

// IDs returns query i's qualifying identifiers. The slice aliases the
// result buffer: copy it if it must outlive the BatchResult's reuse.
func (r *BatchResult) IDs(i int) []uint32 { return r.b.Query(i) }

// Index is the common interface of the access methods: the adaptive
// clustering index (NewAdaptive), its parallel partitioned variant
// (NewSharded) and the paper's baselines (NewSeqScan, NewRStar).
// Implementations are safe for concurrent use.
type Index interface {
	// Insert adds an object under an identifier unique to the index.
	Insert(id uint32, r Rect) error
	// Update replaces the rectangle stored under an existing id; it
	// returns an error wrapping ErrNotFound if the id is absent.
	Update(id uint32, r Rect) error
	// Delete removes an object, reporting whether it existed.
	Delete(id uint32) bool
	// Get returns the rectangle stored under id.
	Get(id uint32) (Rect, bool)
	// Search calls emit for every object satisfying the relation with q;
	// emit returning false stops the search early.
	Search(q Rect, rel Relation, emit func(id uint32) bool) error
	// SearchIDs collects all qualifying identifiers.
	SearchIDs(q Rect, rel Relation) ([]uint32, error)
	// SearchIDsAppend appends all qualifying identifiers to dst and
	// returns the extended slice; reusing the returned slice across calls
	// keeps steady-state selections allocation-free on engines with an
	// allocation-free query path (Adaptive, Sharded).
	SearchIDsAppend(dst []uint32, q Rect, rel Relation) ([]uint32, error)
	// SearchIDsBatch executes every query of the batch in one call and
	// fills dst with the per-query result sets (dst.IDs(i) holds query i's
	// answers, in the same order SearchIDsAppend would produce them). A nil
	// dst allocates one; passing the same dst across calls reuses its
	// buffers. The adaptive engines (Adaptive, Sharded, Disk) execute the
	// batch natively — one pass over the signature mirror, one coalesced
	// read plan — while the baselines loop the single-query path, so
	// results and per-query statistics are engine-independent.
	SearchIDsBatch(dst *BatchResult, qs []Rect, rel Relation) (*BatchResult, error)
	// Count returns the number of qualifying objects.
	Count(q Rect, rel Relation) (int, error)
	// Len returns the number of stored objects.
	Len() int
	// Dims returns the data space dimensionality.
	Dims() int
	// Stats returns a snapshot of the operation counters.
	Stats() Stats
	// ResetStats zeroes the operation counters.
	ResetStats()
}

// Adaptive is the paper's adaptive cost-based clustering index. Searches
// take the lock shared, so any number of concurrent selections execute in
// parallel; mutations (Insert, Update, Delete, Reorganize) take it
// exclusive. Each query's statistics updates are recorded during the shared
// phase and published opportunistically afterwards (core.TryDrainStats):
// readers never wait on statistics publication or reorganization
// maintenance — both run under brief exclusive acquisitions between
// queries. The lock, the publication and the background drainer are those
// of every shard of Sharded: one locked index type serves both.
type Adaptive struct {
	l *shard.Locked
	engineTelemetry
}

// NewAdaptive builds an adaptive clustering index for the given
// dimensionality. By default it uses the in-memory cost scenario, division
// factor 4, reorganization every 100 queries (incremental, budgeted — see
// WithReorgBudget) and statistics decay 0.5; see the Option values to tune.
// With WithBackgroundReorg the index owns a drainer goroutine; call Close
// when done.
func NewAdaptive(dims int, opts ...Option) (*Adaptive, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	ix, err := core.New(coreConfig(dims, o))
	if err != nil {
		return nil, err
	}
	return newAdaptive(ix, o)
}

// coreConfig maps the gathered options onto a core engine configuration.
func coreConfig(dims int, o options) core.Config {
	return core.Config{
		Dims:                dims,
		Params:              o.scenario,
		DivisionFactor:      o.divisionFactor,
		ReorgEvery:          o.reorgEvery,
		Decay:               o.decay,
		ReorgBudgetClusters: o.reorgClusters,
		ReorgBudgetObjects:  o.reorgObjects,
		BackgroundReorg:     o.backgroundReorg,
	}
}

// newAdaptive puts a core index behind its lock (starting the background
// drainer when the index was configured for it) and attaches telemetry.
func newAdaptive(ix *core.Index, o options) (*Adaptive, error) {
	a := &Adaptive{l: shard.NewLocked(ix)}
	if err := a.initTelemetry(o); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Close stops the background reorganization goroutine (no-op without
// WithBackgroundReorg) and, when the engine owns its flight recorder
// (WithTelemetryAddr), the telemetry sampler and endpoint. It is idempotent
// and safe to call concurrently. The index stays usable afterwards; pending
// reorganization work is picked up by the normal schedule of a future
// Reorganize call.
func (a *Adaptive) Close() error {
	a.l.Close()
	a.closeTelemetry()
	return nil
}

// Insert adds an object (placed into the matching cluster with the lowest
// access probability).
func (a *Adaptive) Insert(id uint32, r Rect) error { return a.l.Insert(id, r) }

// InsertBatch bulk-loads a batch of objects under a single lock
// acquisition. On error the batch may be partially applied; objects
// inserted before the failure remain.
func (a *Adaptive) InsertBatch(ids []uint32, rects []Rect) error {
	if len(ids) != len(rects) {
		return fmt.Errorf("accluster: batch has %d ids but %d rectangles", len(ids), len(rects))
	}
	return a.l.Exclusive(func(ix *core.Index) error {
		for k := range ids {
			if err := ix.Insert(ids[k], rects[k]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Update replaces the rectangle stored under id, relocating the object to
// the matching cluster with the lowest access probability; it returns an
// error wrapping ErrNotFound if the id is absent.
func (a *Adaptive) Update(id uint32, r Rect) error { return a.l.Update(id, r) }

// Delete removes an object, reporting whether it existed.
func (a *Adaptive) Delete(id uint32) bool { return a.l.Delete(id) }

// Get returns the rectangle stored under id. Concurrent Gets (and searches)
// run in parallel (shared lock).
func (a *Adaptive) Get(id uint32) (Rect, bool) { return a.l.Get(id) }

// Search executes a spatial selection. Concurrent searches run in parallel
// (shared lock); the query's statistics updates are recorded during the
// search and published afterwards. emit must not call back into the same
// index.
//
//ac:noalloc
func (a *Adaptive) Search(q Rect, rel Relation, emit func(id uint32) bool) error {
	t0 := a.begin()
	err := a.l.Search(q, rel, emit)
	a.end(t0)
	return err
}

// SearchIDs collects all qualifying identifiers.
func (a *Adaptive) SearchIDs(q Rect, rel Relation) ([]uint32, error) {
	return a.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends all qualifying identifiers to dst and returns the
// extended slice; with a reused dst of sufficient capacity the selection
// allocates nothing. Concurrent searches run in parallel (shared lock).
//
//ac:noalloc
func (a *Adaptive) SearchIDsAppend(dst []uint32, q Rect, rel Relation) ([]uint32, error) {
	t0 := a.begin()
	ids, err := a.l.SearchIDsAppend(dst, q, rel)
	a.end(t0)
	return ids, err
}

// SearchIDsBatch executes every query of the batch under one shared-lock
// acquisition with a single pass over the signature mirror: clusters matched
// by several queries are verified against all of them while their columns
// are hot, and the whole batch publishes its statistics as one mailbox
// entry. Results, per-query meter charges and clustering statistics are
// exactly those of looping SearchIDsAppend over the batch; with a reused
// dst a steady-state batch allocates nothing. The latency histogram records
// one sample for the whole batch.
//
//ac:noalloc
func (a *Adaptive) SearchIDsBatch(dst *BatchResult, qs []Rect, rel Relation) (*BatchResult, error) {
	if dst == nil {
		//acvet:ignore noalloc nil-dst convenience; steady-state callers pass a reused BatchResult
		dst = new(BatchResult)
	}
	t0 := a.begin()
	err := a.l.SearchIDsBatch(&dst.b, qs, rel)
	a.end(t0)
	return dst, err
}

// Count returns the number of qualifying objects. Concurrent counts run in
// parallel (shared lock).
//
//ac:noalloc
func (a *Adaptive) Count(q Rect, rel Relation) (int, error) {
	t0 := a.begin()
	n, err := a.l.Count(q, rel)
	a.end(t0)
	return n, err
}

// Len returns the number of stored objects.
func (a *Adaptive) Len() int { return a.l.Len() }

// Dims returns the data space dimensionality.
func (a *Adaptive) Dims() int { return a.l.Dims() }

// Clusters returns the number of materialized clusters.
func (a *Adaptive) Clusters() int { return a.l.Clusters() }

// Reorganize forces a reorganization round (normally triggered
// automatically every ReorgEvery queries).
func (a *Adaptive) Reorganize() { a.l.Reorganize() }

// ReorgRounds returns the number of reorganization rounds executed.
func (a *Adaptive) ReorgRounds() int64 { return a.l.Info().ReorgRounds }

// Splits returns the number of cluster materializations performed.
func (a *Adaptive) Splits() int64 { return a.l.Info().Splits }

// Merges returns the number of cluster merge operations performed.
func (a *Adaptive) Merges() int64 { return a.l.Info().Merges }

// Stats returns a snapshot of the operation counters. The counters are
// merged race-free per query, so the snapshot is consistent even while
// searches are in flight.
func (a *Adaptive) Stats() Stats {
	in := a.l.Info()
	return statsFrom(in.Meter, in.Objects, in.Clusters, a.l.Dims())
}

// ResetStats zeroes the operation counters (clustering statistics are kept).
func (a *Adaptive) ResetStats() { a.l.ResetMeter() }

// CheckInvariants validates the structural invariants of the index; it is
// expensive and intended for tests.
func (a *Adaptive) CheckInvariants() error {
	return a.l.Exclusive((*core.Index).CheckInvariants)
}

// SeqScan is the sequential scan baseline.
type SeqScan struct {
	baseline
}

// NewSeqScan builds a sequential scan store.
func NewSeqScan(dims int) (*SeqScan, error) {
	st, err := seqscan.New(dims)
	if err != nil {
		return nil, err
	}
	s := new(SeqScan)
	s.init(st)
	return s, nil
}

// RStar is the R*-tree baseline.
type RStar struct {
	baseline
	t *rstar.Tree
}

// NewRStar builds an R*-tree with 16 KB pages by default.
func NewRStar(dims int, opts ...Option) (*RStar, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	t, err := rstar.New(rstar.Config{
		Dims:         dims,
		PageSize:     o.pageSize,
		MinFill:      o.minFill,
		ReinsertFrac: o.reinsertFrac,
	})
	if err != nil {
		return nil, err
	}
	r := &RStar{t: t}
	r.init(t)
	return r, nil
}

// Nodes returns the number of tree nodes (pages).
func (r *RStar) Nodes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.Nodes()
}

// Height returns the number of tree levels.
func (r *RStar) Height() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.Height()
}

// CheckInvariants validates the structural invariants of the tree; it is
// expensive and intended for tests.
func (r *RStar) CheckInvariants() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.CheckInvariants()
}

// Compile-time interface checks.
var (
	_ Index = (*Adaptive)(nil)
	_ Index = (*SeqScan)(nil)
	_ Index = (*RStar)(nil)
)

// statsFrom converts an internal meter into the public Stats.
func statsFrom(m cost.Meter, objects, partitions, dims int) Stats {
	return Stats{
		Objects:            objects,
		Dims:               dims,
		Partitions:         partitions,
		Queries:            m.Queries,
		PartitionsChecked:  m.SigChecks,
		PartitionsExplored: m.Explorations,
		Seeks:              m.Seeks,
		ObjectsVerified:    m.ObjectsVerified,
		BytesVerified:      m.BytesVerified,
		BytesTransferred:   m.BytesTransferred,
		CacheHits:          m.CacheHits,
		CacheMisses:        m.CacheMisses,
		Results:            m.Results,
	}
}
