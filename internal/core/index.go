package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

// Config parameterizes an adaptive clustering index.
type Config struct {
	// Dims is the data space dimensionality (required, ≥ 1).
	Dims int
	// Params selects the storage scenario driving the clustering
	// decisions (cost.Memory() or cost.Disk(), possibly tuned).
	Params cost.Params
	// DivisionFactor is the clustering function's f (§4.2); default 4.
	DivisionFactor int
	// ReorgEvery triggers a reorganization round after that many queries
	// (§7.1 uses 100); default 100.
	ReorgEvery int
	// Decay is the exponential forgetting factor applied to query
	// statistics at every reorganization round; default 0.5. A value of
	// 1 never forgets (static query distribution), values close to 0
	// adapt aggressively.
	Decay float64
	// PaperRule decides splits and merges by the paper's per-query
	// benefits alone (eqs. 3 and 5), without charging the relocation of
	// the moved objects against the statistics horizon (cost.Relocation).
	// The public package never sets it; it keeps the paper's decisions
	// reachable as a reference.
	PaperRule bool
}

// relocation returns the price the configuration's split and merge tests
// charge per relocated object: none under PaperRule.
func (c *Config) relocation(objBytes int) cost.Relocation {
	if c.PaperRule {
		return cost.Relocation{}
	}
	return c.Params.Relocation(objBytes, c.DivisionFactor, c.ReorgEvery, c.Decay)
}

func (c *Config) setDefaults() error {
	if c.Dims < 1 {
		return fmt.Errorf("core: invalid dimensionality %d", c.Dims)
	}
	if c.DivisionFactor == 0 {
		c.DivisionFactor = 4
	}
	if c.DivisionFactor < 2 {
		return fmt.Errorf("core: division factor must be ≥ 2, got %d", c.DivisionFactor)
	}
	if c.ReorgEvery == 0 {
		c.ReorgEvery = 100
	}
	if c.ReorgEvery < 1 {
		return fmt.Errorf("core: ReorgEvery must be ≥ 1, got %d", c.ReorgEvery)
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if math.IsNaN(c.Decay) || c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("core: decay must be in (0,1], got %g", c.Decay)
	}
	if c.Params.Name == "" {
		c.Params = cost.Memory()
	}
	// A NaN, infinite or negative price fails every benefit test, so the
	// index would silently never cluster. All-zero prices are a free
	// machine and stay valid.
	p := c.Params
	for _, v := range [...]float64{p.SigCheckMS, p.ExploreSetupMS, p.SeekMS, p.VerifyMSPerByte, p.TransferMSPerByte} {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return fmt.Errorf("core: scenario %q has a cost that is not finite and ≥ 0: %+v", p.Name, p)
		}
	}
	return nil
}

// Normalized returns the configuration with defaults applied, or the
// validation error a constructor would report. It lets other layers (the
// persistence format, option surfaces) reason about effective values without
// duplicating the defaulting rules.
func (c Config) Normalized() (Config, error) {
	err := c.setDefaults()
	return c, err
}

// objLoc records where an object currently lives.
type objLoc struct {
	c   *Cluster
	pos int32
}

// Index is the adaptive cost-based clustering index. Every selection runs
// through one batched read phase (batch.go) — a single query is a batch of
// one — that records its statistics increments instead of applying them.
// The index distinguishes two access classes: the *Read query methods
// (SearchRead, SearchIDsAppendRead, CountRead, SearchBatchRead) may run
// concurrently with each other — they only read structural state and queue
// their statistics record (publish.go) — while every other method requires
// exclusive access. A single-owner caller follows each read with DrainStats.
// The public accluster package enforces the contract with a reader/writer
// lock per index.
type Index struct {
	cfg      Config
	objBytes int
	// reloc prices the relocations of a split or merge (reorg.go).
	reloc cost.Relocation

	root     *Cluster
	clusters []*Cluster // all materialized clusters; clusters[0] == root

	// sigBounds mirrors every cluster's signature as one flat float32
	// array (4·dims per cluster, positionally aligned with clusters), so
	// the per-query signature pass is a single linear scan (sigscan.go).
	// sigSel is its dimension-selector side array (4 bytes per cluster,
	// sig.AppendSelectors): the precomputed narrowest membership
	// dimensions the batch point kernel probes, maintained at the same
	// sites as the mirror. Empty when dims exceeds sig.MaxSelectorDims.
	sigBounds []float32
	sigSel    []uint8

	loc map[uint32]objLoc

	// bscratch pools read-phase buffers (*batchScratch) so that
	// steady-state queries perform no allocations while each in-flight
	// read still owns a private set; readers counts in-flight read phases
	// (the reentrancy guard of exclusivePrep).
	bscratch sync.Pool
	readers  atomic.Int32

	// Statistics-publication mailbox: completed read phases enqueue their
	// scratch (carrying the statistics record — one entry per read, a
	// single query or a whole batch) under pendMu; the next exclusive
	// holder applies them (publish.go). pendN mirrors len(pending) for
	// lock-free backlog checks; pendSpare recycles the drained slice.
	pendMu    sync.Mutex
	pending   []*batchScratch
	pendSpare []*batchScratch
	pendN     atomic.Int32

	// Statistics window: W is the decayed total number of queries; every
	// cluster's and candidate's q is decayed on the same schedule — the
	// window eagerly at each epoch, the clusters lazily via syncStats —
	// so access probabilities p = q/W stay consistent (§3.1).
	window     float64
	sinceReorg int
	// epoch counts reorganization epochs begun; reorgQ holds the clusters
	// still awaiting their budgeted revisit (reorg.go).
	epoch            int64
	reorgQ           reorgHeap
	meter            cost.SyncMeter
	reorgRounds      int64
	splits, merges   int64
	objectsRelocated int64
}

// ErrDuplicateID is returned when inserting an id already present.
var ErrDuplicateID = errors.New("core: duplicate object id")

// ErrNotFound is returned when updating an id that is not present.
var ErrNotFound = errors.New("core: object not found")

// New builds an empty index holding the root cluster.
func New(cfg Config) (*Index, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	objBytes := geom.ObjectBytes(cfg.Dims)
	ix := &Index{
		cfg:      cfg,
		objBytes: objBytes,
		reloc:    cfg.relocation(objBytes),
		loc:      make(map[uint32]objLoc),
	}
	ix.root = newCluster(sig.Root(cfg.Dims), cfg.DivisionFactor)
	ix.root.pos = 0
	ix.clusters = []*Cluster{ix.root}
	ix.appendSigBounds(ix.root.signature)
	return ix, nil
}

// Config returns the effective configuration (with defaults applied).
func (ix *Index) Config() Config { return ix.cfg }

// Dims returns the data space dimensionality.
func (ix *Index) Dims() int { return ix.cfg.Dims }

// Len returns the number of stored objects.
func (ix *Index) Len() int { return len(ix.loc) }

// Clusters returns the number of materialized clusters.
func (ix *Index) Clusters() int { return len(ix.clusters) }

// Meter returns a consistent snapshot of the accumulated operation
// counters. It is safe to call from any goroutine: each query merges its
// counter delta at the end of its read phase.
func (ix *Index) Meter() cost.Meter { return ix.meter.Snapshot() }

// ResetMeter zeroes the operation counters (statistics windows are kept).
// Safe to call from any goroutine.
func (ix *Index) ResetMeter() { ix.meter.Reset() }

// ReorgRounds returns the number of reorganization rounds executed.
func (ix *Index) ReorgRounds() int64 { return ix.reorgRounds }

// Splits returns the number of cluster materializations performed.
func (ix *Index) Splits() int64 { return ix.splits }

// Merges returns the number of merge operations performed.
func (ix *Index) Merges() int64 { return ix.merges }

// ObjectsRelocated returns the number of object moves caused by
// reorganizations.
func (ix *Index) ObjectsRelocated() int64 { return ix.objectsRelocated }

// Epoch returns the reorganization epoch: the number of reorganization
// rounds that have begun (a round in progress counts). Like the other plain
// counters it must be read under at least the shared lock of a wrapper.
func (ix *Index) Epoch() int64 { return ix.epoch }

// ReorgBacklog returns the number of clusters queued for revisiting by the
// incremental reorganizer. Must be read under at least the shared lock of a
// wrapper.
func (ix *Index) ReorgBacklog() int { return len(ix.reorgQ) }

// prob converts a decayed match count into an access probability.
func (ix *Index) prob(q float64) float64 {
	if ix.window <= 0 {
		return 0
	}
	p := q / ix.window
	if p > 1 {
		p = 1
	}
	return p
}

// Insert adds an object (Fig. 4): among all materialized clusters whose
// signature accepts the object, the one with the lowest access probability
// hosts it.
//
//ac:excl
func (ix *Index) Insert(id uint32, r geom.Rect) error {
	if r.Dims() != ix.cfg.Dims {
		return fmt.Errorf("core: object has %d dims, index has %d", r.Dims(), ix.cfg.Dims)
	}
	if !r.Valid() {
		return fmt.Errorf("core: invalid rectangle %v", r)
	}
	ix.exclusivePrep()
	if _, dup := ix.loc[id]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	// syncStats (rather than the read-only effectiveQ) persists the
	// deferred decay, so a stale cluster pays the exponentiation once per
	// epoch instead of on every insert that considers it.
	ix.syncStats(ix.root)
	best := ix.root
	bestP := ix.prob(ix.root.q)
	for _, c := range ix.clusters[1:] {
		if !c.signature.MatchesObject(r) {
			continue
		}
		ix.syncStats(c)
		if p := ix.prob(c.q); p <= bestP {
			// ≤ prefers later (deeper, more specific) clusters on
			// ties, which keeps rarely-explored clusters filled.
			best, bestP = c, p
		}
	}
	pos := best.appendObject(id, r)
	ix.loc[id] = objLoc{c: best, pos: int32(pos)}
	return nil
}

// Delete removes the object with the given id, reporting whether it existed.
//
//ac:excl
func (ix *Index) Delete(id uint32) bool {
	ix.exclusivePrep()
	l, ok := ix.loc[id]
	if !ok {
		return false
	}
	movedID, moved := l.c.removeObjectAt(int(l.pos))
	if moved {
		ix.loc[movedID] = objLoc{c: l.c, pos: l.pos}
	}
	delete(ix.loc, id)
	return true
}

// Update replaces the rectangle stored under id, relocating the object to
// the matching cluster with the lowest access probability. The stored object
// is untouched if the new rectangle is invalid.
//
//ac:excl
func (ix *Index) Update(id uint32, r geom.Rect) error {
	if r.Dims() != ix.cfg.Dims {
		return fmt.Errorf("core: object has %d dims, index has %d", r.Dims(), ix.cfg.Dims)
	}
	if !r.Valid() {
		return fmt.Errorf("core: invalid rectangle %v", r)
	}
	if _, ok := ix.loc[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	ix.Delete(id)
	return ix.Insert(id, r)
}

// Get returns the rectangle stored under id.
func (ix *Index) Get(id uint32) (geom.Rect, bool) {
	l, ok := ix.loc[id]
	if !ok {
		return geom.Rect{}, false
	}
	return l.c.rectAt(int(l.pos), ix.cfg.Dims), true
}

// VisitClusters calls fn for every materialized cluster (root first).
func (ix *Index) VisitClusters(fn func(c *Cluster)) {
	for _, c := range ix.clusters {
		fn(c)
	}
}
