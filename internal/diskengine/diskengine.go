// Package diskengine executes spatial queries against a cluster database in
// its on-device layout — the paper's disk storage scenario made concrete
// (§5.ii): cluster signatures and the directory live in memory, member
// objects are read from the device per explored cluster, sequentially within
// a cluster. Pointed at a vdisk.Disk it yields simulated disk-scenario
// execution times from the real access pattern, complementing the pure
// counter-based model in internal/cost.
//
// The engine is a read-only executor over a checkpoint written by
// store.Save; reorganization happens in the in-memory index (internal/core)
// and becomes visible on the next checkpoint (reopening the checkpoint
// starts a fresh cache generation, so nothing stale survives).
//
// The query path is the in-memory core engine's read phase over a different
// column source: every selection is a batch, and a single query is a batch
// of one.
//
//   - The signature pass scans a flat contiguous mirror of all directory
//     signatures once for the whole batch (sig.MatchBoundsBatch, which runs
//     sig.MatchBounds for a batch of one) instead of calling the per-entry
//     virtual matcher — the A term is one linear pass over packed floats.
//   - Explored regions come from a fixed-budget cache of decoded
//     structure-of-arrays columns (internal/blockcache), keyed by
//     (checkpoint generation, cluster) and shared by concurrent searches
//     through per-entry pinning. A cache hit verifies without touching the
//     device: it charges no Seeks and no BytesTransferred, only CacheHits
//     and the CPU-side counters (ObjectsVerified, BytesVerified).
//   - Cache misses are read with seek-coalescing readahead: the missed
//     regions are sorted by device offset and adjacent/near-adjacent ones
//     merge into single sequential reads (store.PlanReadRuns), so a
//     multi-cluster query pays one seek per run instead of one per cluster.
//     Each coalesced run charges one Seek and its full byte length
//     (gaps included) as BytesTransferred, plus one CacheMiss per region.
//   - Each explored region is verified against every query interested in
//     it by sig.Scan.Explore, the code the core engine runs: the columnar
//     kernels over a pooled candidate bitmap, most selective dimensions
//     first, with signature-implied column skips — so the accounting is the
//     core engine's by construction (BytesVerified aggregates per-column
//     survivor bytes).
//
// Steady-state queries whose regions are all cached allocate nothing: the
// match, bitmap, dimension orders and read plan live in pooled scratch, and
// SearchIDsAppend appends straight to the caller's result buffer.
package diskengine

import (
	"fmt"
	"sync"

	"accluster/internal/blockcache"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
	"accluster/internal/store"
)

// Default knobs of the disk query path.
const (
	// DefaultCacheBytes is the decoded-region cache budget used when the
	// configuration leaves it zero: 64 MiB, a small fraction of the
	// paper-scale databases yet enough to hold every hot cluster of a
	// skewed query distribution.
	DefaultCacheBytes = 64 << 20
	// DefaultReadaheadGap is the largest byte gap bridged by one coalesced
	// read when the configuration leaves it zero: 256 KiB, safely below
	// the seek-time byte equivalent of the paper's disk model (15 ms at
	// 20 MB/s ≈ 300 KB), so bridging a gap is never slower than seeking
	// over it.
	DefaultReadaheadGap = 256 << 10
)

// Config tunes the disk query path. The zero value selects the defaults.
type Config struct {
	// CacheBytes is the decoded-region cache budget in bytes: 0 selects
	// DefaultCacheBytes, negative disables the cache entirely (every
	// exploration reads the device, as the seed engine did).
	CacheBytes int64
	// ReadaheadGap is the maximum byte gap between two regions that one
	// coalesced sequential read bridges: 0 selects DefaultReadaheadGap,
	// negative disables coalescing (one read per missed region).
	ReadaheadGap int64
	// Cache, when non-nil, is a shared decoded-region cache used instead
	// of a private one (CacheBytes is then ignored). Engines sharing a
	// cache are isolated by checkpoint generation.
	Cache *blockcache.Cache
}

// Engine answers spatial selections from a checkpointed cluster database.
// It is safe for concurrent use: the directory, signature mirror and cache
// handle are immutable after Open, every Search works from pooled per-call
// scratch, cached regions are shared read-only under pins, operation
// counters merge race-free per query, and the device serializes its own
// head (vdisk.Disk models one arm; a real *os.File's ReadAt is reentrant).
type Engine struct {
	dev       store.Device
	dims      int
	objBytes  int
	dir       []store.DirEntry
	sigBounds []float32 // flat signature mirror, 4·dims floats per cluster
	sigSel    []uint8   // its dimension-selector side array (sig.AppendSelectors)
	cache     *blockcache.Cache
	gen       uint64
	maxGap    int64
	meter     cost.SyncMeter
	scratch   sync.Pool // *batchScratch
}

// batchScratch holds the buffers of one in-flight read phase so the fully
// cached (hit) path allocates nothing.
//
//ac:scratch
type batchScratch struct {
	sig.Scan
	one [1]geom.Rect // the query slice of a batch of one

	miss []int32         // matched positions absent from the cache (each once)
	runs []store.ReadRun // coalesced read plan over miss
	buf  []byte          // device image of the run being processed
	// local is the decode target reused across misses when the engine has
	// no cache (with a cache, each miss decodes into a fresh Region that
	// the cache may retain).
	local *blockcache.Region
	meter cost.Meter
}

// Open reads and validates the directory of a database written by
// store.Save and prepares the default query path (DefaultCacheBytes,
// DefaultReadaheadGap). Only the header and directory are read; cluster
// regions stay on the device until explored.
func Open(dev store.Device) (*Engine, error) {
	return OpenConfig(dev, Config{})
}

// OpenConfig is Open with explicit cache and readahead configuration.
func OpenConfig(dev store.Device, cfg Config) (*Engine, error) {
	dir, dims, err := store.ReadDirectory(dev)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		dev:      dev,
		dims:     dims,
		objBytes: geom.ObjectBytes(dims),
		dir:      dir,
		gen:      blockcache.NextGen(),
	}
	e.sigBounds = make([]float32, 0, len(dir)*4*dims)
	for _, d := range dir {
		e.sigBounds = sig.AppendBounds(e.sigBounds, d.Signature)
	}
	if dims <= sig.MaxSelectorDims {
		e.sigSel = make([]uint8, 0, len(dir)*4)
		for ci := range dir {
			e.sigSel = sig.AppendSelectors(e.sigSel, e.sigBounds[ci*4*dims:(ci+1)*4*dims], dims)
		}
	}
	switch {
	case cfg.Cache != nil:
		e.cache = cfg.Cache
	case cfg.CacheBytes == 0:
		e.cache = blockcache.New(DefaultCacheBytes)
	case cfg.CacheBytes > 0:
		e.cache = blockcache.New(cfg.CacheBytes)
	}
	e.maxGap = cfg.ReadaheadGap
	if e.maxGap == 0 {
		e.maxGap = DefaultReadaheadGap
	}
	e.scratch.New = func() any { return &batchScratch{} }
	return e, nil
}

// Dims returns the data space dimensionality.
func (e *Engine) Dims() int { return e.dims }

// Clusters returns the number of clusters in the directory.
func (e *Engine) Clusters() int { return len(e.dir) }

// Len returns the number of stored objects.
func (e *Engine) Len() int {
	n := 0
	for _, d := range e.dir {
		n += d.Count
	}
	return n
}

// Meter returns a consistent snapshot of the accumulated operation
// counters; each query merges its counter delta race-free on completion.
func (e *Engine) Meter() cost.Meter { return e.meter.Snapshot() }

// ResetMeter zeroes the operation counters.
func (e *Engine) ResetMeter() { e.meter.Reset() }

// CacheStats returns a snapshot of the decoded-region cache counters (the
// zero Stats when the cache is disabled). With a shared cache the numbers
// cover every engine using it.
func (e *Engine) CacheStats() blockcache.Stats {
	if e.cache == nil {
		return blockcache.Stats{}
	}
	return e.cache.Stats()
}

// Search checks every cluster signature in memory and verifies the members
// of matching clusters — from the decoded-region cache when resident,
// otherwise reading the missed regions with coalesced sequential reads.
// Cached clusters are verified first (no I/O), then the misses in device
// offset order; the emission order across clusters is therefore
// unspecified. emit returning false stops the search: remaining regions are
// neither read nor charged. On an error, emit may already have received
// some qualifying ids. Concurrent Searches are safe and share cached
// regions without copying.
//
//ac:noalloc
func (e *Engine) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	return e.searchOne(q, rel, emit, nil)
}

// Count returns the number of objects satisfying the selection, or 0 with
// an error. It sums the per-region survivor counts of the block scan
// directly — no ids are extracted, no closure is allocated.
//
//ac:noalloc
func (e *Engine) Count(q geom.Rect, rel geom.Relation) (int, error) {
	var out sig.Sink
	if err := e.searchOne(q, rel, nil, &out); err != nil {
		return 0, err
	}
	return out.Count, nil
}

// SearchIDs collects the identifiers of all qualifying objects.
func (e *Engine) SearchIDs(q geom.Rect, rel geom.Relation) ([]uint32, error) {
	return e.SearchIDsAppend(nil, q, rel)
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst
// and returns the extended slice; on an error it returns dst as passed, with
// no partial answer appended. With a reused dst of sufficient capacity a
// fully cached selection allocates nothing.
//
//ac:noalloc
func (e *Engine) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	ids := [1][]uint32{dst}
	out := sig.Sink{IDs: ids[:]}
	if err := e.searchOne(q, rel, nil, &out); err != nil {
		return dst, err
	}
	return ids[0], nil
}

// searchOne runs one query as a batch of one, delivering its answer to emit,
// or to dst when emit is nil.
//
//ac:noalloc
func (e *Engine) searchOne(q geom.Rect, rel geom.Relation, emit func(id uint32) bool, dst *sig.Sink) error {
	if q.Dims() != e.dims {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: query has %d dims, database has %d", q.Dims(), e.dims)
	}
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: invalid relation %v", rel)
	}
	sc := e.scratch.Get().(*batchScratch)
	sc.one[0] = q
	err := e.read(sc, sc.one[:], rel, emit, dst)
	sc.one[0] = geom.Rect{}
	e.scratch.Put(sc)
	return err
}
