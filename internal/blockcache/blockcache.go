// Package blockcache is a fixed-memory-budget, concurrency-safe cache of
// decoded cluster regions for the disk storage scenario (§5.ii). A disk
// deployment keeps signatures and the directory in memory while cluster
// members live on the device; every explored cluster therefore costs a seek,
// a sequential transfer and a decode. Production query streams re-explore
// the same hot clusters over and over — the adaptive clustering exists
// precisely because the query distribution is skewed — so caching *decoded*
// regions converts repeat explorations into pure in-memory column scans:
// no seek, no transfer, no decode, no allocation.
//
// Entries are keyed by the cluster's position in the checkpoint directory.
// A cache belongs to one engine, which serves one checkpoint: re-opening a
// checkpoint (after a new store.Save) builds a new engine with a new, empty
// cache, so nothing stale survives.
//
// Eviction is CLOCK (second-chance): each hit sets the entry's reference
// bit, the hand sweeps the ring clearing bits and evicts the first
// unreferenced entry. Entries are pinned while a query verifies against
// their columns — concurrent searches share one decoded region without
// copying — and pinned entries are never evicted; if the sweep cannot free
// enough room (everything pinned, or the region alone exceeds the budget)
// the region is simply not admitted and stays a private, uncached buffer of
// the requesting query.
package blockcache

import "sync"

// Region is one decoded cluster region in the core's structure-of-arrays
// column layout: IDs[i] pairs with Lo[d][i], Hi[d][i]. The columns live in
// one slab sized to the live member count n, column j being
// slab[j·n:(j+1)·n]: Lo[d] is column 2d and Hi[d] column 2d+1. Cols exposes
// that slab, so a decoder fills every column in one pass
// (store.DecodeRegionColumns), and the verification kernels
// (internal/geom) run over Lo and Hi directly. While a Region is pinned its
// columns are immutable and safe to read from any number of goroutines.
type Region struct {
	IDs []uint32
	Lo  [][]float32 // Lo[d][i] = interval start of member i in dimension d
	Hi  [][]float32 // Hi[d][i] = interval end of member i in dimension d

	slab  []float32
	heads [][]float32 // Lo's and Hi's headers, one array: Lo = heads[:dims]
	bytes int64

	// Cache bookkeeping, guarded by the owning Cache's mutex.
	cluster  int32
	pins     int32
	ref      bool
	resident bool
}

// regionOverhead approximates the fixed per-entry footprint (struct, slice
// headers, map entry, ring slot) charged against the budget so that many
// tiny regions cannot blow past it.
const regionOverhead = 192

// Reset prepares the region to hold n members of the given dimensionality,
// reusing previously allocated storage when capacities allow. The contents
// are undefined until the caller fills the columns.
func (r *Region) Reset(n, dims int) {
	if cap(r.IDs) < n {
		r.IDs = make([]uint32, n)
	} else {
		r.IDs = r.IDs[:n]
	}
	if cap(r.heads) < 2*dims {
		r.heads = make([][]float32, 2*dims)
	}
	r.Lo = r.heads[:dims:dims]
	r.Hi = r.heads[dims : 2*dims : 2*dims]
	if need := 2 * dims * n; cap(r.slab) < need {
		r.slab = make([]float32, need)
	} else {
		r.slab = r.slab[:need]
	}
	for d := 0; d < dims; d++ {
		r.Lo[d] = r.slab[(2*d)*n : (2*d+1)*n : (2*d+1)*n]
		r.Hi[d] = r.slab[(2*d+1)*n : (2*d+2)*n : (2*d+2)*n]
	}
	r.bytes = int64(4*cap(r.IDs)) + int64(4*cap(r.slab)) + regionOverhead
}

// Cols returns the column slab: 2·dims columns of Len() floats, column j at
// [j·Len(), (j+1)·Len()), Lo[d] being column 2d and Hi[d] column 2d+1.
func (r *Region) Cols() []float32 { return r.slab }

// Len returns the number of members.
func (r *Region) Len() int { return len(r.IDs) }

// Bytes returns the budget charge of the region.
func (r *Region) Bytes() int64 { return r.bytes }

// Stats describes the cache's observed behaviour.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries removed by the CLOCK sweep.
	Evictions int64
	// Rejected counts regions that could not be admitted (everything
	// evictable was pinned, or the region alone exceeds the budget).
	Rejected int64
	// Entries is the current number of resident regions.
	Entries int
	// Pinned is the number of resident regions currently pinned by
	// in-flight queries; PinnedBytes is their budget charge. Pinned
	// entries are never evicted, so PinnedBytes bounds how much of
	// UsedBytes a sweep could not reclaim right now.
	Pinned      int
	PinnedBytes int64
	// UsedBytes and BudgetBytes describe the memory budget.
	UsedBytes, BudgetBytes int64
}

// Cache is the fixed-budget region cache. All methods are safe for
// concurrent use; the mutex guards only map/ring bookkeeping (never I/O or
// decoding, which callers do outside).
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[int32]*Region // by cluster position
	ring      []*Region
	hand      int
	hits      int64
	misses    int64
	evictions int64
	rejected  int64
}

// New builds a cache with the given memory budget in bytes (the decoded
// footprint of resident regions, including a fixed per-entry overhead).
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, entries: make(map[int32]*Region)}
}

// Get returns the resident region of the cluster at directory position
// cluster pinned, or nil. The caller must Unpin it after verifying.
func (c *Cache) Get(cluster int32) (*Region, bool) {
	c.mu.Lock()
	r := c.entries[cluster]
	if r == nil {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	r.pins++
	r.ref = true
	c.hits++
	c.mu.Unlock()
	return r, true
}

// Put admits the freshly decoded region r of cluster and returns the
// canonical region for the cluster, pinned: r itself when admitted, the
// already-resident region when another query inserted the cluster first (r
// is then discarded), or r unmanaged when the cache cannot make room — the
// caller uses it exactly the same way and the later Unpin is a no-op. The
// caller must not touch r again after Put except through the returned
// region.
func (c *Cache) Put(cluster int32, r *Region) *Region {
	c.mu.Lock()
	defer c.mu.Unlock()
	if exist := c.entries[cluster]; exist != nil {
		exist.pins++
		exist.ref = true
		return exist
	}
	if r.bytes > c.budget || !c.makeRoom(r.bytes) {
		c.rejected++
		return r
	}
	r.cluster = cluster
	r.resident = true
	r.pins = 1
	r.ref = true
	c.entries[cluster] = r
	c.ring = append(c.ring, r)
	c.used += r.bytes
	return r
}

// makeRoom sweeps the CLOCK hand until need bytes fit in the budget,
// skipping pinned entries and granting one second chance per referenced
// entry. It reports whether the space was freed. The examination limit is
// fixed at entry — two passes over the ring as it was, enough to clear
// every reference bit once and come around again — so a multi-eviction
// admission is not cut short just because earlier evictions shrank the
// ring; once the limit is reached everything left is pinned and the
// admission is refused.
func (c *Cache) makeRoom(need int64) bool {
	limit := 2 * len(c.ring)
	examined := 0
	for c.used+need > c.budget {
		if len(c.ring) == 0 || examined >= limit {
			return false
		}
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		examined++
		if e.pins > 0 {
			c.hand++
			continue
		}
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		// Evict: swap-remove from the ring (the hand stays, now pointing
		// at the swapped-in tail entry) and drop the map entry.
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring = c.ring[:last]
		delete(c.entries, e.cluster)
		c.used -= e.bytes
		e.resident = false
		c.evictions++
	}
	return true
}

// Unpin releases a region obtained from Get or Put. Unpinning a region the
// cache never admitted is a no-op.
func (c *Cache) Unpin(r *Region) {
	c.mu.Lock()
	if r.resident && r.pins > 0 {
		r.pins--
	}
	c.mu.Unlock()
}

// Stats returns a consistent snapshot of the cache counters. The pinned
// figures are computed by walking the ring under the mutex — bounded by the
// entry count and intended for periodic sampling, not hot paths.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Rejected:    c.rejected,
		Entries:     len(c.ring),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
	}
	for _, e := range c.ring {
		if e.pins > 0 {
			s.Pinned++
			s.PinnedBytes += e.bytes
		}
	}
	return s
}

// Contains reports whether the cluster's region is resident (without
// pinning or touching the reference bit); intended for tests.
func (c *Cache) Contains(cluster int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[cluster] != nil
}
