package core

// Deferred statistics publication: the machinery that lets spatial
// selections run under a shared (read) lock.
//
// The paper couples every query with bookkeeping — the explored clusters'
// query indicators Q, the candidate subclusters' indicators q, the decayed
// statistics window and the reorganization schedule all advance per query
// (§3.1) — which naively makes every search a write. To let concurrent
// searches of one index proceed in parallel, the query path is split in two:
//
//   - The *read phase* (batchRead; a single query is a batch of one)
//     touches only state that mutations keep frozen while readers are in
//     flight: the cluster list, the signature mirror, the member columns and
//     the candidate bounds. Everything the query would have written —
//     cost-meter counts and the statistics increments — is recorded into
//     the read's own pooled scratch instead.
//   - The *publication phase* applies those recorded increments. Meter
//     deltas merge immediately into a SyncMeter (its own short mutex, safe
//     under the shared lock). Statistics records are enqueued into a small
//     mailbox and applied by the next caller that holds the index
//     exclusively: every mutating operation drains the mailbox on entry,
//     and the one lock-owning wrapper, internal/shard's Locked (which
//     accluster.Adaptive, every shard and the pub/sub broker hold), calls
//     TryDrainStats after each query — opportunistically with TryLock, so
//     readers never wait for publication, with a blocking drain only once
//     the backlog reaches StatsBacklogMax.
//
// The mailbox is the only way a record reaches the index, applyRecord the
// only routine that applies one and DrainStats the only per-query driver of
// reorganization steps. A single-owner caller runs a *Read method and then
// DrainStats: one record applied, one budgeted step taken — the serial
// cadence. Applied increments are exactly one per explored cluster and
// matched candidate and one window tick per query, so after all records
// drain, concurrent and serial execution of the same query set leave
// identical statistics up to the commutative reordering of the additions.

import (
	"sync"
)

// StatsBacklogMax bounds the statistics-publication mailbox: once this many
// records are queued, the next publisher drains with a blocking lock
// acquisition instead of an opportunistic TryLock, capping both the memory
// pinned by queued scratches and the staleness of the adaptive statistics.
const StatsBacklogMax = 128

// statDelta is the statistics publication a read phase owes for its nq
// queries: one record per (cluster, query) signature match, laid out
// cluster-major — record j is the j-th entry of the read's cluster-major
// match, naming the cluster (one Q increment) and, as a flat index list
// sliced by candOff, the candidate subclusters the query virtually explored
// (one q increment each). The record's query is the match's QIdx[j].
type statDelta struct {
	nq       int
	clusters []*Cluster
	candOff  []int32 // len(clusters)+1 offsets into cands
	cands    []int32 // flat matched-candidate indices
}

func (d *statDelta) reset() {
	for i := range d.clusters {
		d.clusters[i] = nil // do not pin merged-away clusters in the pool
	}
	d.nq = 0
	d.clusters = d.clusters[:0]
	d.candOff = d.candOff[:0]
	d.cands = d.cands[:0]
}

// enqueueStats queues a completed read phase's statistics record for the
// next exclusive holder — a whole batch is one mailbox entry, so it costs
// one drain; safe under the shared lock. The entry owns the scratch until
// the record is applied, when it returns to its pool.
//
//ac:noalloc
func (ix *Index) enqueueStats(bc *batchScratch) {
	ix.pendMu.Lock()
	ix.pending = append(ix.pending, bc)
	ix.pendN.Store(int32(len(ix.pending)))
	ix.pendMu.Unlock()
}

// StatsBacklog reports the number of queued statistics publications. It is
// safe to call from any goroutine.
func (ix *Index) StatsBacklog() int { return int(ix.pendN.Load()) }

// exclusivePrep is the entry guard of every operation requiring exclusive
// access: it rejects calls from inside an in-flight query on the same
// goroutine (the one way the exclusivity contract can be broken without a
// data race — an emit callback calling back into the index) and applies all
// queued statistics publications so the operation observes current
// statistics. It returns the number of queries applied.
//
//ac:excl
func (ix *Index) exclusivePrep() int {
	if ix.readers.Load() != 0 {
		panic("core: exclusive operation during an in-flight query (emit must not call back into the index)")
	}
	return ix.applyPending()
}

// applyPending applies every queued statistics delta in enqueue order and
// returns the number of queries applied (a batched entry counts as its
// query count). Caller must hold the index exclusively.
//
//ac:excl
func (ix *Index) applyPending() int {
	if ix.pendN.Load() == 0 {
		return 0
	}
	ix.pendMu.Lock()
	batch := ix.pending
	ix.pending = ix.pendSpare
	ix.pendSpare = nil
	ix.pendN.Store(0)
	ix.pendMu.Unlock()
	n := 0
	for i, bc := range batch {
		ix.applyRecord(bc)
		n += bc.stats.nq
		ix.putBatchScratch(bc)
		batch[i] = nil
	}
	ix.pendMu.Lock()
	if ix.pendSpare == nil {
		ix.pendSpare = batch[:0]
	}
	ix.pendMu.Unlock()
	return n
}

// The budget of one reorganization step: at most reorgBudgetClusters
// revisits and reorgBudgetObjects relocations. Merges and materializations
// are chunked across steps, so the object cap bounds every step. A
// relocation costs about 2 µs, revisit work included (16-d range queries of
// selectivity 5e-3 over 50 000 objects on a 2-vCPU VM: about 50 relocations
// for about 100 µs of steps per query), making a full step comparable to a
// moderately selective query.
const (
	reorgBudgetClusters = 32
	reorgBudgetObjects  = 128
)

// maxDrainReorgSteps caps the budgeted reorganization steps one DrainStats
// call runs when a batch of queued publications is applied at once: the
// serial cadence owes one step per query, but paying a whole
// StatsBacklogMax batch's worth of steps inside a single exclusive section
// would reintroduce exactly the latency cliff the budgeted scheduler
// removed. The remainder stays queued for later drains (or Reorganize).
const maxDrainReorgSteps = 8

// DrainStats applies all queued statistics publications and runs one
// budgeted reorganization step per applied query — the serial maintenance
// cadence — capped at maxDrainReorgSteps per call so the exclusive section
// stays bounded even when a full mailbox drains at once. The caller must
// hold the index exclusively.
//
//ac:excl
func (ix *Index) DrainStats() { ix.drainStats(reorgBudgetClusters, reorgBudgetObjects) }

// drainStats is DrainStats with the step budgets as arguments (negative =
// unlimited); unlimited budgets give the synchronous full pass at every
// epoch, the reference the package's tests hold the shipped budgets to.
//
//ac:excl
func (ix *Index) drainStats(clusterBudget, objectBudget int) {
	steps := min(ix.exclusivePrep(), maxDrainReorgSteps)
	for i := 0; i < steps && len(ix.reorgQ) > 0; i++ {
		ix.drain(clusterBudget, objectBudget)
	}
}

// TryDrainStats publishes queued statistics under mu, the reader/writer lock
// through which the caller serializes exclusive access to this index. It
// must be called WITHOUT mu held. Publication is opportunistic: while the
// backlog is below StatsBacklogMax a failed TryLock just leaves the deltas
// for the next exclusive holder, so concurrent readers never wait on
// publication; at the watermark it blocks to bound the backlog.
func (ix *Index) TryDrainStats(mu *sync.RWMutex) {
	if ix.pendN.Load() == 0 {
		return
	}
	if ix.StatsBacklog() < StatsBacklogMax {
		if !mu.TryLock() {
			return
		}
	} else {
		mu.Lock()
	}
	ix.DrainStats()
	mu.Unlock()
}
