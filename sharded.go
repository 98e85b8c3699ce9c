package accluster

import (
	"accluster/internal/core"
	"accluster/internal/shard"
)

// ErrNotFound is returned by Update when the object id is not present.
var ErrNotFound = core.ErrNotFound

// Sharded is the parallel partitioned adaptive index: objects are
// hash-partitioned by id across independent adaptive indexes (shards), point
// operations lock only the owning shard, and spatial selections fan out to
// all shards in parallel and merge the answers. It returns exactly the same
// result sets as Adaptive over the same data — partitioning only changes who
// verifies each object — while letting operations on different shards run on
// different cores.
type Sharded struct {
	e *shard.Engine
	engineTelemetry
}

// NewSharded builds a sharded adaptive index for the given dimensionality.
// The shard count defaults to the next power of two ≥ GOMAXPROCS; see
// WithShards and WithFanout to tune, plus the Adaptive options (scenario,
// division factor, reorganization budget, …), which apply to every shard.
// With WithBackgroundReorg every shard owns a drainer goroutine that takes
// the shard lock only per bounded reorganization step; call Close when done.
func NewSharded(dims int, opts ...Option) (*Sharded, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	e, err := shard.New(shard.Config{
		Shards:  o.shards,
		Workers: o.fanout,
		Core:    coreConfig(dims, o),
	})
	if err != nil {
		return nil, err
	}
	return newSharded(e, o)
}

// newSharded wraps an engine and attaches telemetry.
func newSharded(e *shard.Engine, o options) (*Sharded, error) {
	s := &Sharded{e: e}
	if err := s.initTelemetry(o); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the per-shard background reorganization goroutines (no-op
// without WithBackgroundReorg) and, when the engine owns its flight recorder
// (WithTelemetryAddr), the telemetry sampler and endpoint. It is idempotent
// and safe to call concurrently. The index stays usable afterwards.
func (s *Sharded) Close() error {
	err := s.e.Close()
	s.closeTelemetry()
	return err
}

// Insert adds an object to its owning shard (placed into the matching
// cluster with the lowest access probability there).
func (s *Sharded) Insert(id uint32, r Rect) error { return s.e.Insert(id, r) }

// InsertBatch bulk-loads a batch of objects: the batch is pre-bucketed by
// owning shard and every shard ingests its bucket under a single lock
// acquisition, with shards loading in parallel. On error the batch may be
// partially applied.
func (s *Sharded) InsertBatch(ids []uint32, rects []Rect) error {
	return s.e.InsertBatch(ids, rects)
}

// Update replaces the rectangle stored under id; it returns an error
// wrapping ErrNotFound if the id is absent.
func (s *Sharded) Update(id uint32, r Rect) error { return s.e.Update(id, r) }

// Delete removes an object, reporting whether it existed.
func (s *Sharded) Delete(id uint32) bool { return s.e.Delete(id) }

// Get returns the rectangle stored under id.
func (s *Sharded) Get(id uint32) (Rect, bool) { return s.e.Get(id) }

// Search executes a spatial selection by fanning out to all shards in
// parallel; results are emitted in shard order once all shards answered.
// emit returning false stops the emission early.
func (s *Sharded) Search(q Rect, rel Relation, emit func(id uint32) bool) error {
	t0 := s.begin()
	err := s.e.Search(q, rel, emit)
	s.end(t0)
	return err
}

// SearchIDs collects all qualifying identifiers.
func (s *Sharded) SearchIDs(q Rect, rel Relation) ([]uint32, error) {
	return s.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends all qualifying identifiers to dst and returns the
// extended slice. The fan-out merges the per-shard answers through pooled
// buffers, but it is not allocation-free: a warm selection with a reused
// dst makes one allocation on one shard (the fan-out closure) and, with two
// workers, seven on two or four shards (the worker goroutines on top).
func (s *Sharded) SearchIDsAppend(dst []uint32, q Rect, rel Relation) ([]uint32, error) {
	t0 := s.begin()
	ids, err := s.e.SearchIDsAppend(dst, q, rel)
	s.end(t0)
	return ids, err
}

// SearchIDsBatch executes every query of the batch with one fan-out: each
// shard receives the whole batch (one signature-mirror pass per shard, not
// one per query) and the per-shard answers merge into dst in shard order per
// query — exactly the id order looped SearchIDsAppend calls produce. The
// latency histogram records one sample for the whole batch.
func (s *Sharded) SearchIDsBatch(dst *BatchResult, qs []Rect, rel Relation) (*BatchResult, error) {
	if dst == nil {
		dst = new(BatchResult)
	}
	t0 := s.begin()
	err := s.e.SearchIDsBatch(&dst.b, qs, rel)
	s.end(t0)
	return dst, err
}

// Count returns the number of qualifying objects.
func (s *Sharded) Count(q Rect, rel Relation) (int, error) {
	t0 := s.begin()
	n, err := s.e.Count(q, rel)
	s.end(t0)
	return n, err
}

// Len returns the number of stored objects across all shards.
func (s *Sharded) Len() int { return s.e.Len() }

// Dims returns the data space dimensionality.
func (s *Sharded) Dims() int { return s.e.Dims() }

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.e.Shards() }

// Clusters returns the number of materialized clusters across all shards.
func (s *Sharded) Clusters() int { return s.e.Clusters() }

// Reorganize forces a reorganization round on every shard, in parallel
// (normally each shard reorganizes itself every ReorgEvery queries).
func (s *Sharded) Reorganize() { s.e.Reorganize() }

// ReorgRounds returns the total number of reorganization rounds across all
// shards.
func (s *Sharded) ReorgRounds() int64 { return s.e.ReorgRounds() }

// Splits returns the total number of cluster materializations performed.
func (s *Sharded) Splits() int64 { return s.e.Splits() }

// Merges returns the total number of cluster merge operations performed.
func (s *Sharded) Merges() int64 { return s.e.Merges() }

// Stats returns an aggregated snapshot of the operation counters: work
// counters are summed across shards while Queries counts logical selections,
// so per-query fractions and modeled times describe total (sequential) work
// per selection. The parallel speedup appears in wall time, not in the
// modeled time.
func (s *Sharded) Stats() Stats {
	st := statsFrom(s.e.Meter(), s.e.Len(), s.e.Clusters(), s.e.Dims())
	st.QuarantinedPartitions = s.e.QuarantinedCount()
	return st
}

// ShardStats returns one Stats snapshot per shard, in routing order; useful
// for checking partition balance.
func (s *Sharded) ShardStats() []Stats {
	infos := s.e.ShardInfos()
	out := make([]Stats, len(infos))
	for i, in := range infos {
		out[i] = statsFrom(in.Meter, in.Objects, in.Clusters, s.e.Dims())
		if in.Quarantined {
			out[i].QuarantinedPartitions = 1
		}
	}
	return out
}

// ResetStats zeroes the operation counters (clustering statistics are kept).
func (s *Sharded) ResetStats() { s.e.ResetMeter() }

// ClusterInfos reports every materialized cluster, shard by shard (each
// shard's root cluster first).
func (s *Sharded) ClusterInfos() []ClusterInfo {
	infos := s.e.ClusterInfos()
	out := make([]ClusterInfo, len(infos))
	for i, in := range infos {
		out[i] = ClusterInfo(in)
	}
	return out
}

// QuarantinedShard describes one partition that failed to load during a
// salvage open (WithSalvage): its index and the integrity or I/O error that
// quarantined it.
type QuarantinedShard = shard.QuarantinedShard

// Generation returns the checkpoint generation the index was loaded from or
// last saved as (0 for a fresh index that has never touched disk).
func (s *Sharded) Generation() uint64 { return s.e.Generation() }

// Quarantined reports the partitions that failed to load during a salvage
// open, with the error that condemned each; empty on a healthy index.
func (s *Sharded) Quarantined() []QuarantinedShard { return s.e.Quarantined() }

// RestoreQuarantined re-ingests the objects of quarantined partitions from
// an authoritative copy of the full data set (e.g. the original objects or
// a peer's checkpoint contents): objects routing to healthy shards are
// skipped, objects routing to quarantined shards are re-inserted, and on
// success the quarantine is cleared. No-op on a healthy index.
func (s *Sharded) RestoreQuarantined(ids []uint32, rects []Rect) error {
	return s.e.RestoreQuarantined(ids, rects)
}

// CheckInvariants validates every shard's structural invariants and the
// id-routing invariant; it is expensive and intended for tests.
func (s *Sharded) CheckInvariants() error { return s.e.CheckInvariants() }

var _ Index = (*Sharded)(nil)
