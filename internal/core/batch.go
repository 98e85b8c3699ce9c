package core

import (
	"fmt"

	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

// The read phase: every selection is a batch, and a single query is a batch
// of one. A looped single-query caller pays N scans of the flat signature
// mirror, N statistics publications and — when several queries select the
// same cluster — N separate walks over that cluster's member columns. The
// batched read phase restructures the same work around the data instead of
// the queries:
//
//   - the signature mirror is scanned once for the whole batch with the
//     transposed query-block kernel (sig.MatchBoundsBatch),
//   - candidate clusters are grouped across queries, so each explored
//     cluster's columns are verified against every interested query while
//     they are hot in cache,
//   - the whole batch travels through the statistics mailbox as one
//     publication and costs one drain.
//
// Per-query observable state is preserved exactly: each query's result set,
// its cost-meter increments and its statistics increments (cluster Q,
// candidate q, one window tick per query, the epoch trigger between
// queries) equal the looped single-query execution against the same
// structure — the batch is one structural snapshot, which is also what a
// concurrent caller issuing N SearchRead calls back-to-back observes.

// batchScratch holds the buffers of one in-flight read phase, pooled so
// steady-state selections allocate nothing. It travels with the statistics
// record through the publication mailbox and returns to the pool once the
// record is applied.
//
//ac:scratch
type batchScratch struct {
	sig.Scan
	one [1]geom.Rect // the query slice of a batch of one

	// Query-major transpose of the cluster-major match:
	// qcIdx[qcOff[qi]:qcOff[qi+1]] are the statistics-record indices
	// (positions in Match.QIdx and stats) of query qi's matched clusters,
	// in ascending cluster order.
	qcOff []int32
	qcIdx []int32

	meter cost.Meter // the whole batch's operation counts
	stats statDelta  // the whole batch's deferred statistics publication
}

// getBatchScratch takes a scratch from the pool (its buffers are reset).
//
//ac:noalloc
func (ix *Index) getBatchScratch() *batchScratch {
	if bc, ok := ix.bscratch.Get().(*batchScratch); ok {
		return bc
	}
	//acvet:ignore noalloc pool-miss construction; steady state reuses pooled scratch
	return &batchScratch{}
}

// putBatchScratch clears the per-read state and returns bc to the pool.
//
//ac:noalloc
func (ix *Index) putBatchScratch(bc *batchScratch) {
	bc.meter.Reset()
	bc.stats.reset()
	ix.bscratch.Put(bc)
}

// validateBatch rejects a malformed batch before any of it executes: unlike
// a loop of single queries, which errors mid-stream with the earlier
// queries already charged, a batch is atomic — either every query is valid
// or nothing runs.
func (ix *Index) validateBatch(qs []geom.Rect, rel geom.Relation) error {
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("core: invalid relation %v", rel)
	}
	for i := range qs {
		if qs[i].Dims() != ix.cfg.Dims {
			//acvet:ignore noalloc cold argument-validation failure path
			return fmt.Errorf("core: batch query %d has %d dims, index has %d", i, qs[i].Dims(), ix.cfg.Dims)
		}
	}
	return nil
}

// SearchBatchRead executes every query in qs in one engine pass and fills
// dst with the per-query result sets (dst.Query(i) holds query i's ids, in
// the same order SearchIDsAppendRead would produce). It is the batch twin
// of SearchIDsAppendRead: safe to run simultaneously with other *Read
// queries under a shared lock, with the whole batch's statistics recorded
// and queued as a single publication — one mailbox entry, one drain —
// while the applied increments stay exactly those of the looped single
// queries. The batch reads one structural snapshot; an invalid query fails
// the whole batch before any of it executes.
//
//ac:noalloc
func (ix *Index) SearchBatchRead(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	return ix.searchBatch(dst, qs, rel, false)
}

// SearchIDsBatch is SearchBatchRead for exclusive-access callers: the batch
// statistics apply straight after the read phase — replayed query by query,
// window ticks and epoch triggers interleaved exactly as the serial
// single-query loop would — and each query pays its budgeted slice of
// pending reorganization work.
func (ix *Index) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	return ix.searchBatch(dst, qs, rel, true)
}

// searchBatch runs a validated batch into dst and publishes it like
// searchOne.
//
//ac:noalloc
func (ix *Index) searchBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation, excl bool) error {
	if err := ix.validateBatch(qs, rel); err != nil {
		return err
	}
	if excl {
		ix.exclusivePrep()
	}
	dst.Reset(len(qs))
	if len(qs) == 0 {
		return nil
	}
	bc := ix.getBatchScratch()
	out := bc.Accumulate(len(qs))
	ix.batchRead(bc, qs, rel, nil, &out)
	bc.Collect(dst)
	ix.publish(bc, excl)
	return nil
}

// batchRead is the read phase of a selection: it delivers each query's
// answer to emit (a batch of one only) or dst (sig.Scan.Explore) and
// records, rather than applies, every side effect — operation counts into
// bc.meter, statistics increments into bc.stats. It touches no index state
// that mutations change, so any number of read phases may run concurrently;
// mutations require exclusivity. Once emit returns false the remaining
// matched clusters are neither explored nor charged, but still recorded for
// statistics: the adaptive decisions model which clusters the query
// distribution selects, not how much of the answer a particular caller
// consumed.
//
//ac:noalloc
func (ix *Index) batchRead(bc *batchScratch, qs []geom.Rect, rel geom.Relation, emit func(id uint32) bool, dst *sig.Sink) {
	ix.readers.Add(1)
	defer ix.readers.Add(-1)
	nq := len(qs)
	nc := len(ix.clusters)
	bc.meter.Queries += int64(nq)
	bc.meter.SigChecks += int64(nq) * int64(nc)
	bc.Prepare(ix.sigBounds, nc, ix.cfg.Dims, ix.sigSel, qs, rel)
	m := &bc.Match

	// Transpose the cluster-major match into the query-major view the
	// statistics replay needs (counting sort over match positions; within
	// a query the records stay in ascending cluster order). Each
	// match.QIdx entry becomes one statistics record below, in the same
	// order, so the stored value is the entry's own position.
	if cap(bc.qcOff) < nq+1 {
		//acvet:ignore noalloc amortized scratch growth; no alloc once qcOff covers the batch size
		bc.qcOff = make([]int32, 0, nq+1)
	}
	bc.qcOff = bc.qcOff[:nq+1]
	for i := range bc.qcOff {
		bc.qcOff[i] = 0
	}
	for _, q32 := range m.QIdx {
		bc.qcOff[q32+1]++
	}
	for i := 0; i < nq; i++ {
		bc.qcOff[i+1] += bc.qcOff[i]
	}
	pairs := len(m.QIdx)
	if cap(bc.qcIdx) < pairs {
		//acvet:ignore noalloc amortized scratch growth; no alloc once qcIdx covers the match volume
		bc.qcIdx = make([]int32, 0, pairs)
	}
	bc.qcIdx = bc.qcIdx[:pairs]
	for j, q32 := range m.QIdx {
		bc.qcIdx[bc.qcOff[q32]] = int32(j)
		bc.qcOff[q32]++
	}
	// The cursor pass shifted every offset to the start of the next
	// query's range; shift back.
	for i := nq; i > 0; i-- {
		bc.qcOff[i] = bc.qcOff[i-1]
	}
	bc.qcOff[0] = 0

	// Cluster-major statistics recording and verification: each matched
	// cluster's candidate array and member columns are walked for every
	// interested query back-to-back, while they are hot in cache. The
	// records land in match order, which is what the qcIdx transpose
	// indexes.
	bd := &bc.stats
	bd.nq = nq
	bd.candOff = append(bd.candOff[:0], 0)
	stride := ix.sigStride()
	stopped := false
	for p, ci := range m.Clusters {
		c := ix.clusters[ci]
		interested := m.QIdx[m.QOff[p]:m.QOff[p+1]]
		for _, q32 := range interested {
			bd.clusters = append(bd.clusters, c)
			recordCandidateStats(c, qs[q32], rel, bd)
			bd.candOff = append(bd.candOff, int32(len(bd.cands)))
		}
		if stopped {
			continue
		}
		// Explore the cluster for each interested query: one sequential
		// region (one seek on disk, n·objBytes transferred), then member
		// verification.
		k := int64(len(interested))
		bc.meter.Seeks += k
		bc.meter.BytesTransferred += k * int64(len(c.ids)) * int64(ix.objBytes)
		sb := ix.sigBounds[int(ci)*stride : (int(ci)+1)*stride]
		stopped = !bc.Explore(p, sb, c.ids, c.lo, c.hi, emit, dst, &bc.meter)
	}
}

// publish merges a finished read phase's meter delta and hands its
// statistics record on. An exclusive caller (excl) replays the record query
// by query at once, each query followed by one budgeted reorganization step
// — the serial maintenance cadence; a concurrent caller queues it for the
// next exclusive holder.
//
//ac:noalloc
func (ix *Index) publish(bc *batchScratch, excl bool) {
	ix.meter.Merge(bc.meter)
	if !excl {
		ix.enqueueStats(bc)
		return
	}
	for qi := 0; qi < bc.stats.nq; qi++ {
		ix.applyQuery(bc, qi)
		if !ix.cfg.BackgroundReorg && len(ix.reorgQ) > 0 {
			ix.drain(ix.cfg.ReorgBudgetClusters, ix.cfg.ReorgBudgetObjects)
		}
	}
	ix.putBatchScratch(bc)
}

// applyQuery performs one query's share of a read phase's statistics
// publication: Q of every signature-matching cluster, q of every matched
// candidate, one statistics window tick and the epoch trigger — picked out
// of the cluster-major record through the query-major transpose. Clusters
// merged away since the read ran are skipped; their statistics died with
// them, as they would have had the merge preceded the query.
func (ix *Index) applyQuery(bc *batchScratch, qi int) {
	d := &bc.stats
	for _, j := range bc.qcIdx[bc.qcOff[qi]:bc.qcOff[qi+1]] {
		c := d.clusters[j]
		if c.removed {
			continue
		}
		ix.syncStats(c)
		c.q++
		cq := c.cands.q
		for _, k := range d.cands[d.candOff[j]:d.candOff[j+1]] {
			cq[k]++
		}
	}
	ix.window++
	ix.sinceReorg++
	if ix.sinceReorg >= ix.cfg.ReorgEvery {
		ix.beginEpoch()
	}
}

// applyInline applies a whole read phase's statistics in one cluster-major
// walk over the records. Valid only when no epoch boundary falls inside the
// batch (ix.sinceReorg + nq < ReorgEvery): then the per-query replay's
// observable effects — syncStats, which early-returns once a cluster is
// synced to the current epoch, and the commutative Q increments and window
// ticks — are order-independent, so the linear walk over the records (each
// cluster's entries adjacent, its stats hot) produces the identical state at
// a fraction of the pointer-chasing.
func (ix *Index) applyInline(bc *batchScratch) {
	d := &bc.stats
	var last *Cluster
	for j, c := range d.clusters {
		if c.removed {
			continue
		}
		if c != last {
			ix.syncStats(c)
			last = c
		}
		c.q++
		cq := c.cands.q
		for _, k := range d.cands[d.candOff[j]:d.candOff[j+1]] {
			cq[k]++
		}
	}
	ix.window += float64(d.nq)
	ix.sinceReorg += d.nq
}
