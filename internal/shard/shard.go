// Package shard partitions an adaptive clustering database across several
// independent core indexes so that operations on different partitions run in
// parallel. Objects are hash-partitioned by identifier (Fibonacci hashing
// over a power-of-two shard count, so routing is one multiply and one
// shift); point operations — Insert, Update, Delete, Get — lock only the
// owning shard, while spatial selections fan out to every shard on a bounded
// worker pool and merge the per-shard answers.
//
// Each shard is a Locked: one core index behind its reader/writer lock, the
// same type accluster.Adaptive wraps around its single index. Selections
// hold the lock shared, so concurrent queries execute in parallel *within* a
// shard as well as across shards — throughput scales with clients × cores,
// not with the shard count alone. Mutations and reorganization steps hold
// the lock exclusive; query statistics publish after the shared phase
// through core.TryDrainStats, so readers never wait on maintenance.
//
// Every shard is a complete adaptive index: it keeps its own clustering,
// query statistics and reorganization schedule. Because a selection visits
// all shards, each shard observes the full query stream and converges on the
// same cadence as a single index, just over its slice of the objects.
//
// Exactness is unaffected by partitioning: cluster signatures only prune,
// and every candidate object is verified against the selection individually,
// so the union of the shard answers equals the single-index answer.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
)

// maxShards bounds the shard count; beyond this the per-query fan-out
// overhead dwarfs any conceivable parallelism win.
const maxShards = 1 << 10

// Config parameterizes a sharded engine.
type Config struct {
	// Shards is the number of partitions, rounded up to a power of two;
	// 0 picks the next power of two ≥ GOMAXPROCS.
	Shards int
	// Workers bounds the fan-out worker pool; 0 picks
	// min(Shards, GOMAXPROCS).
	Workers int
	// Salvage makes LoadDir degrade instead of fail when segments are
	// corrupt: damaged shards are quarantined (started empty) and the
	// readable partitions are served. New ignores it.
	Salvage bool
	// Core configures every shard's adaptive index (Dims is required).
	Core core.Config
}

// ceilPow2 returns the smallest power of two ≥ n.
func ceilPow2(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k
}

func (c *Config) setDefaults() error {
	if c.Shards == 0 {
		c.Shards = ceilPow2(runtime.GOMAXPROCS(0))
	}
	if c.Shards < 0 || c.Shards > maxShards {
		return fmt.Errorf("shard: shard count %d out of range [1,%d]", c.Shards, maxShards)
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Workers <= 0 {
		c.Workers = c.Shards
		if p := runtime.GOMAXPROCS(0); p < c.Workers {
			c.Workers = p
		}
	}
	return nil
}

// Engine is the sharded adaptive clustering engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	shift  uint // 32 - log2(shards), for Fibonacci routing
	shards []*Locked
	// queries counts logical selections (each fans out to every shard, so
	// the per-shard meters would overcount by the shard factor).
	queries atomic.Int64
	// merge pools the per-shard result buffers of the fan-out so that
	// steady-state selections reuse the same backing arrays instead of
	// allocating one answer slice per shard per query.
	merge sync.Pool
	// generation is the committed checkpoint generation this engine was
	// loaded from (and advanced by every SaveDir); 0 before any save.
	generation atomic.Uint64
	// quarantined records shards whose checkpoint segments failed
	// validation in a salvage load; guarded by qmu.
	qmu         sync.Mutex
	quarantined []QuarantinedShard
}

// QuarantinedShard records one partition whose checkpoint segment was
// missing or failed validation during a salvage load. The shard serves an
// empty partition until restored.
type QuarantinedShard struct {
	// Shard is the partition's routing position.
	Shard int
	// Err is the validation failure (matches store.ErrCorrupt for
	// integrity damage).
	Err error
}

// mergeBuffers is one pooled set of per-shard answer buffers: perShard backs
// the single-query fan-out, batch the batched fan-out (one IDBatch per
// shard, merged query-major after the barrier).
type mergeBuffers struct {
	perShard [][]uint32
	batch    []geom.IDBatch
}

func (e *Engine) getMergeBuffers() *mergeBuffers {
	if b, ok := e.merge.Get().(*mergeBuffers); ok {
		return b
	}
	return &mergeBuffers{perShard: make([][]uint32, len(e.shards))}
}

// New builds an empty sharded engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ixs := make([]*core.Index, cfg.Shards)
	for i := range ixs {
		ix, err := core.New(cfg.Core)
		if err != nil {
			return nil, err
		}
		ixs[i] = ix
	}
	// core.New applied the per-shard defaults; keep the effective config.
	cfg.Core = ixs[0].Config()
	return newEngine(cfg, ixs), nil
}

// Wrap assembles an engine from pre-built shard indexes (the load path).
// The index count must be a power of two and all dimensionalities equal.
func Wrap(cfg Config, ixs []*core.Index) (*Engine, error) {
	if len(ixs) == 0 || len(ixs) != ceilPow2(len(ixs)) || len(ixs) > maxShards {
		return nil, fmt.Errorf("shard: shard count %d is not a power of two in [1,%d]", len(ixs), maxShards)
	}
	cfg.Shards = len(ixs)
	cfg.Core = ixs[0].Config()
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	for i, ix := range ixs {
		if ix.Dims() != cfg.Core.Dims {
			return nil, fmt.Errorf("shard: shard %d has %d dims, shard 0 has %d", i, ix.Dims(), cfg.Core.Dims)
		}
	}
	return newEngine(cfg, ixs), nil
}

// newEngine puts every shard index behind its lock.
func newEngine(cfg Config, ixs []*core.Index) *Engine {
	shift := uint(32)
	for k := 1; k < len(ixs); k <<= 1 {
		shift--
	}
	e := &Engine{cfg: cfg, shift: shift, shards: make([]*Locked, len(ixs))}
	for i, ix := range ixs {
		e.shards[i] = NewLocked(ix)
	}
	return e
}

// Config returns the effective configuration (defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Shards returns the number of partitions.
func (e *Engine) Shards() int { return len(e.shards) }

// Dims returns the data space dimensionality.
func (e *Engine) Dims() int { return e.cfg.Core.Dims }

// route returns the owning shard's position for an object id: Fibonacci
// hashing spreads arbitrary id patterns (sequential, strided, clustered)
// evenly over the power-of-two shard count.
func (e *Engine) route(id uint32) int {
	return int((id * 2654435761) >> e.shift)
}

// forEachShard runs fn over every shard on at most cfg.Workers goroutines
// and returns the first error. fn goes through the shard's Locked methods,
// which take the shard's lock.
func (e *Engine) forEachShard(fn func(i int, s *Locked) error) error {
	if len(e.shards) == 1 {
		return fn(0, e.shards[0])
	}
	if e.cfg.Workers == 1 {
		// Single-worker pool (e.g. GOMAXPROCS=1): run inline, the
		// goroutine round-trips would be pure overhead.
		for i, s := range e.shards {
			if err := fn(i, s); err != nil {
				return err
			}
		}
		return nil
	}
	workers := e.cfg.Workers
	if workers > len(e.shards) {
		workers = len(e.shards)
	}
	var (
		next     atomic.Int32
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.shards) {
					return
				}
				if err := fn(i, e.shards[i]); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Insert adds an object to its owning shard.
func (e *Engine) Insert(id uint32, r geom.Rect) error { return e.shards[e.route(id)].Insert(id, r) }

// Update replaces the rectangle stored under id in its owning shard.
func (e *Engine) Update(id uint32, r geom.Rect) error { return e.shards[e.route(id)].Update(id, r) }

// Delete removes an object from its owning shard, reporting whether it
// existed.
func (e *Engine) Delete(id uint32) bool { return e.shards[e.route(id)].Delete(id) }

// Get returns the rectangle stored under id. Concurrent Gets and searches
// on the same shard run in parallel (shared lock).
func (e *Engine) Get(id uint32) (geom.Rect, bool) { return e.shards[e.route(id)].Get(id) }

// InsertBatch bulk-loads a batch: ids are pre-bucketed by owning shard, then
// every shard ingests its bucket under a single lock acquisition, with the
// shards loading in parallel. On error the batch may be partially applied;
// objects inserted before the failure remain.
func (e *Engine) InsertBatch(ids []uint32, rects []geom.Rect) error {
	if len(ids) != len(rects) {
		return fmt.Errorf("shard: batch has %d ids but %d rectangles", len(ids), len(rects))
	}
	if len(ids) == 0 {
		return nil
	}
	buckets := make([][]int32, len(e.shards))
	for k := range ids {
		b := e.route(ids[k])
		buckets[b] = append(buckets[b], int32(k))
	}
	return e.forEachShard(func(i int, s *Locked) error {
		if len(buckets[i]) == 0 {
			return nil
		}
		return s.Exclusive(func(ix *core.Index) error {
			for _, k := range buckets[i] {
				if err := ix.Insert(ids[k], rects[k]); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// Search executes a spatial selection: the query fans out to every shard in
// parallel, each shard runs the selection over its partition (updating its
// own clustering statistics), and the merged answers are emitted in shard
// order. emit returning false stops the emission; shard-side statistics for
// the query are still recorded, as in the single index.
func (e *Engine) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	bufs, err := e.fanOut(q, rel)
	if err != nil {
		return err
	}
	defer e.merge.Put(bufs)
	for _, ids := range bufs.perShard {
		for _, id := range ids {
			if !emit(id) {
				return nil
			}
		}
	}
	return nil
}

// fanOut runs the selection on every shard into pooled per-shard buffers.
// The caller must return bufs to the pool when done with the answers.
func (e *Engine) fanOut(q geom.Rect, rel geom.Relation) (*mergeBuffers, error) {
	bufs := e.getMergeBuffers()
	err := e.forEachShard(func(i int, s *Locked) error {
		ids, err := s.SearchIDsAppend(bufs.perShard[i][:0], q, rel)
		bufs.perShard[i] = ids
		return err
	})
	if err != nil {
		e.merge.Put(bufs)
		return nil, err
	}
	e.queries.Add(1)
	return bufs, nil
}

// SearchIDs collects the identifiers of all qualifying objects.
func (e *Engine) SearchIDs(q geom.Rect, rel geom.Relation) ([]uint32, error) {
	return e.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst
// and returns the extended slice. The per-shard answers merge through pooled
// buffers, but the fan-out allocates: with a reused dst a warm selection
// makes one allocation on one shard (the fan-out closure) and, with two
// workers, seven on two or four shards (the worker goroutines on top).
func (e *Engine) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	bufs, err := e.fanOut(q, rel)
	if err != nil {
		return dst, err
	}
	defer e.merge.Put(bufs)
	for _, ids := range bufs.perShard {
		dst = append(dst, ids...)
	}
	return dst, nil
}

// SearchIDsBatch executes every query in qs in one engine pass and fills dst
// with the per-query result sets. One *batch* — not N queries — fans out to
// each shard: every shard runs core.SearchBatchRead once over its partition
// (one signature-mirror scan, one statistics publication for the whole
// batch) into a pooled per-shard result batch, and the per-query answers
// merge in shard order, exactly the order SearchIDsAppend produces. An
// invalid query fails the whole batch with no shard charged.
func (e *Engine) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	dst.Reset(len(qs))
	if len(qs) == 0 {
		return nil
	}
	bufs := e.getMergeBuffers()
	defer e.merge.Put(bufs)
	if bufs.batch == nil {
		bufs.batch = make([]geom.IDBatch, len(e.shards))
	}
	err := e.forEachShard(func(i int, s *Locked) error {
		return s.SearchIDsBatch(&bufs.batch[i], qs, rel)
	})
	if err != nil {
		return err
	}
	e.queries.Add(int64(len(qs)))
	for qi := range qs {
		for i := range bufs.batch {
			dst.IDs = append(dst.IDs, bufs.batch[i].Query(qi)...)
		}
		dst.Off[qi+1] = int32(len(dst.IDs))
	}
	return nil
}

// Count returns the number of objects satisfying the selection. Unlike the
// retrieval paths it never materializes ids: each shard counts locally.
func (e *Engine) Count(q geom.Rect, rel geom.Relation) (int, error) {
	var total atomic.Int64
	err := e.forEachShard(func(_ int, s *Locked) error {
		n, err := s.Count(q, rel)
		total.Add(int64(n))
		return err
	})
	if err != nil {
		return 0, err
	}
	e.queries.Add(1)
	return int(total.Load()), nil
}

// Len returns the number of stored objects across all shards.
func (e *Engine) Len() int {
	n := 0
	for _, s := range e.shards {
		n += s.Len()
	}
	return n
}

// Clusters returns the number of materialized clusters across all shards.
func (e *Engine) Clusters() int {
	n := 0
	for _, s := range e.shards {
		n += s.Clusters()
	}
	return n
}

// Meter returns the engine-wide operation counters: the sum of the shard
// meters, with Queries being the number of logical selections (every
// selection visits all shards; summing the shard query counts would inflate
// it by the shard factor). The summed counters are total work, so modeled
// per-query times represent sequential cost — the parallel speedup shows up
// in wall time, not in the model.
func (e *Engine) Meter() cost.Meter {
	var m cost.Meter
	for _, s := range e.shards {
		m.Add(s.Meter())
	}
	m.Queries = e.queries.Load()
	return m
}

// ResetMeter zeroes the operation counters (clustering statistics are kept).
func (e *Engine) ResetMeter() {
	for _, s := range e.shards {
		s.ResetMeter()
	}
	e.queries.Store(0)
}

// Reorganize forces a reorganization round on every shard, in parallel.
func (e *Engine) Reorganize() {
	_ = e.forEachShard(func(_ int, s *Locked) error {
		s.Reorganize()
		return nil
	})
}

// ReorgRounds returns the total number of reorganization rounds across all
// shards.
func (e *Engine) ReorgRounds() int64 {
	var n int64
	for _, s := range e.shards {
		n += s.Info().ReorgRounds
	}
	return n
}

// Splits returns the total number of cluster materializations.
func (e *Engine) Splits() int64 {
	var n int64
	for _, s := range e.shards {
		n += s.Info().Splits
	}
	return n
}

// Merges returns the total number of cluster merges.
func (e *Engine) Merges() int64 {
	var n int64
	for _, s := range e.shards {
		n += s.Info().Merges
	}
	return n
}

// ShardInfo summarizes one partition (or, through Locked.Info, any locked
// index) for balance monitoring and telemetry.
type ShardInfo struct {
	// Objects is the number of objects the shard stores.
	Objects int
	// Clusters is the shard's materialized cluster count.
	Clusters int
	// ReorgBacklog is the number of clusters queued for revisiting by the
	// shard's incremental reorganizer.
	ReorgBacklog int
	// StatsBacklog is the number of deferred statistics publications
	// waiting to be applied.
	StatsBacklog int
	// Epoch is the shard's reorganization epoch.
	Epoch int64
	// ReorgRounds, Splits and Merges count the shard's reorganization
	// rounds, cluster materializations and cluster merges.
	ReorgRounds, Splits, Merges int64
	// Quarantined reports whether the shard's checkpoint segment failed
	// validation in a salvage load and has not been restored yet.
	Quarantined bool
	// Meter is the shard-local operation counters.
	Meter cost.Meter
}

// ShardInfos reports every partition in routing order.
func (e *Engine) ShardInfos() []ShardInfo {
	quarantined := make(map[int]bool)
	for _, q := range e.Quarantined() {
		quarantined[q.Shard] = true
	}
	out := make([]ShardInfo, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.Info()
		out[i].Quarantined = quarantined[i]
	}
	return out
}

// Generation returns the committed checkpoint generation the engine was
// loaded from or last saved as (0 before any save of a fresh engine).
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// Quarantined returns the shards degraded by a salvage load, in routing
// order; empty on a healthy engine.
func (e *Engine) Quarantined() []QuarantinedShard {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return append([]QuarantinedShard(nil), e.quarantined...)
}

// QuarantinedCount returns the number of quarantined shards.
func (e *Engine) QuarantinedCount() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.quarantined)
}

// RestoreQuarantined rebuilds quarantined shards from the original objects
// (or a peer's full object set): objects routing to a quarantined shard are
// inserted, everything else is skipped, and the quarantine is lifted. On
// error the quarantine stays in place.
func (e *Engine) RestoreQuarantined(ids []uint32, rects []geom.Rect) error {
	if len(ids) != len(rects) {
		return fmt.Errorf("shard: restore has %d ids but %d rectangles", len(ids), len(rects))
	}
	quarantined := make(map[int]bool)
	for _, q := range e.Quarantined() {
		quarantined[q.Shard] = true
	}
	if len(quarantined) == 0 {
		return nil
	}
	for k := range ids {
		i := e.route(ids[k])
		if !quarantined[i] {
			continue
		}
		if err := e.shards[i].Insert(ids[k], rects[k]); err != nil {
			return fmt.Errorf("shard: restore shard %d: %w", i, err)
		}
	}
	e.qmu.Lock()
	e.quarantined = nil
	e.qmu.Unlock()
	return nil
}

// ClusterInfos reports every materialized cluster, shard by shard in routing
// order (each shard's root first).
func (e *Engine) ClusterInfos() []core.ClusterInfo {
	var out []core.ClusterInfo
	for _, s := range e.shards {
		_ = s.Exclusive(func(ix *core.Index) error {
			out = append(out, ix.ClusterInfos()...)
			return nil
		})
	}
	return out
}

// CheckInvariants validates every shard's structural invariants plus the
// routing invariant (every object lives in the shard its id hashes to); it
// is expensive and intended for tests.
func (e *Engine) CheckInvariants() error {
	return e.forEachShard(func(i int, s *Locked) error {
		return s.Exclusive(func(ix *core.Index) error {
			if err := ix.CheckInvariants(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			for _, cs := range ix.Snapshot() {
				for _, id := range cs.IDs {
					if e.route(id) != i {
						return fmt.Errorf("shard %d: object %d routes to shard %d", i, id, e.route(id))
					}
				}
			}
			return nil
		})
	})
}
