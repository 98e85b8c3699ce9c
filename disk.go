package accluster

import (
	"accluster/internal/diskengine"
	"accluster/internal/store"
)

// Disk is a read-only query engine over a checkpoint written by SaveFile,
// executing the paper's disk storage scenario (§5.ii): the directory and
// cluster signatures stay in memory, member regions are read from the file
// on demand. Unlike OpenAdaptive — which loads the whole database back into
// an in-memory index — OpenDisk touches only the header and directory, so
// it serves selections over databases far larger than RAM.
//
// The query path keeps a fixed-budget cache of decoded cluster regions
// (WithDiskCache): explorations whose region is resident verify in memory
// and charge no Seeks and no BytesTransferred (CacheHits/CacheMisses in
// Stats record the split), while missed regions are fetched with
// seek-coalescing readahead — regions one query explores that lie within
// 256 KiB of each other on disk merge into single sequential reads. Each
// Disk owns its cache, so a Disk opened after a new SaveFile starts with an
// empty one and never sees stale regions.
//
// Disk is safe for concurrent use. It reflects the checkpoint at open time;
// mutations to the live index become visible by checkpointing again and
// reopening.
type Disk struct {
	eng *diskengine.Engine
	dev store.File
	engineTelemetry
}

// OpenDisk opens a database file written by SaveFile for direct
// disk-scenario querying. The file is opened read-only and a missing path is
// an error. WithDiskCache sizes the region cache and the telemetry options
// attach a flight recorder; the other options are ignored.
func OpenDisk(path string, opts ...Option) (*Disk, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	dev, err := store.OS.Open(path)
	if err != nil {
		return nil, err
	}
	cfg := diskengine.Config{}
	if o.diskCacheSet {
		cfg.CacheBytes = o.diskCache
		if o.diskCache == 0 {
			cfg.CacheBytes = -1 // explicit “no cache”
		}
	}
	eng, err := diskengine.OpenConfig(dev, cfg)
	if err != nil {
		dev.Close()
		return nil, err
	}
	d := &Disk{eng: eng, dev: dev}
	if err := d.initTelemetry(o); err != nil {
		dev.Close()
		return nil, err
	}
	return d, nil
}

// Close releases the underlying file and, when the engine owns its flight
// recorder (WithTelemetryAddr), stops the telemetry sampler and endpoint.
// The cache is dropped with the engine. Close is safe to call concurrently;
// calls after the first report the file as already closed.
func (d *Disk) Close() error {
	err := d.dev.Close()
	d.closeTelemetry()
	return err
}

// Search calls emit for every object satisfying the relation with q; emit
// returning false stops the search (regions not yet read stay unread). The
// emission order across clusters is unspecified. On an error emit may
// already have received some qualifying ids; the other query methods return
// no partial answer with an error.
//
//ac:noalloc
func (d *Disk) Search(q Rect, rel Relation, emit func(id uint32) bool) error {
	t0 := d.begin()
	err := d.eng.Search(q, rel, emit)
	d.end(t0)
	return err
}

// SearchIDs collects all qualifying identifiers.
func (d *Disk) SearchIDs(q Rect, rel Relation) ([]uint32, error) {
	t0 := d.begin()
	ids, err := d.eng.SearchIDs(q, rel)
	d.end(t0)
	return ids, err
}

// SearchIDsAppend appends all qualifying identifiers to dst and returns the
// extended slice; with a reused dst, selections whose regions are all
// cached allocate nothing.
//
//ac:noalloc
func (d *Disk) SearchIDsAppend(dst []uint32, q Rect, rel Relation) ([]uint32, error) {
	t0 := d.begin()
	ids, err := d.eng.SearchIDsAppend(dst, q, rel)
	d.end(t0)
	return ids, err
}

// SearchIDsBatch executes every query of the batch with one engine pass and
// one multi-query read plan: the candidate clusters of all queries are
// unioned, the block cache is probed once per distinct cluster, and the
// misses are read as a single coalesced seek-sorted sweep — each region
// decoded once and verified against every interested query while hot. A
// batch therefore costs strictly fewer seeks than looping its queries
// whenever they share clusters or their clusters adjoin on the device. With
// a reused dst a fully cached batch allocates nothing. The latency
// histogram records one sample for the whole batch.
//
//ac:noalloc
func (d *Disk) SearchIDsBatch(dst *BatchResult, qs []Rect, rel Relation) (*BatchResult, error) {
	if dst == nil {
		//acvet:ignore noalloc nil-dst convenience; steady-state callers pass a reused BatchResult
		dst = new(BatchResult)
	}
	t0 := d.begin()
	err := d.eng.SearchIDsBatch(&dst.b, qs, rel)
	d.end(t0)
	return dst, err
}

// Count returns the number of qualifying objects.
//
//ac:noalloc
func (d *Disk) Count(q Rect, rel Relation) (int, error) {
	t0 := d.begin()
	n, err := d.eng.Count(q, rel)
	d.end(t0)
	return n, err
}

// Len returns the number of stored objects.
func (d *Disk) Len() int { return d.eng.Len() }

// Dims returns the data space dimensionality.
func (d *Disk) Dims() int { return d.eng.Dims() }

// Clusters returns the number of clusters in the checkpoint directory.
func (d *Disk) Clusters() int { return d.eng.Clusters() }

// Stats returns a snapshot of the operation counters, including the
// CacheHits/CacheMisses split of explorations.
func (d *Disk) Stats() Stats {
	return statsFrom(d.eng.Meter(), d.eng.Len(), d.eng.Clusters(), d.eng.Dims())
}

// ResetStats zeroes the operation counters (cached regions are kept).
func (d *Disk) ResetStats() { d.eng.ResetMeter() }

// DiskCacheStats describes the decoded-region cache of a Disk engine.
type DiskCacheStats struct {
	// Hits and Misses count cache lookups by explorations.
	Hits, Misses int64
	// Evictions counts regions evicted to respect the memory budget, and
	// Rejected counts regions that could not be admitted at all.
	Evictions, Rejected int64
	// Entries is the number of resident decoded regions.
	Entries int
	// Pinned is the number of resident regions currently pinned by
	// in-flight queries (never evictable); PinnedBytes is their budget
	// charge.
	Pinned      int
	PinnedBytes int64
	// UsedBytes and BudgetBytes describe the memory budget.
	UsedBytes, BudgetBytes int64
}

// CacheStats returns a snapshot of the decoded-region cache counters (all
// zero when the cache is disabled).
func (d *Disk) CacheStats() DiskCacheStats {
	s := d.eng.CacheStats()
	return DiskCacheStats{
		Hits:        s.Hits,
		Misses:      s.Misses,
		Evictions:   s.Evictions,
		Rejected:    s.Rejected,
		Entries:     s.Entries,
		Pinned:      s.Pinned,
		PinnedBytes: s.PinnedBytes,
		UsedBytes:   s.UsedBytes,
		BudgetBytes: s.BudgetBytes,
	}
}
