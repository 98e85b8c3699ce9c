package diskengine

// The read phase against the on-device layout: one multi-query-aware read
// plan for N queries, and a single query is a batch of one. A looped
// single-query caller probes the cache and plans a read pass per query, so
// clusters matched by several queries are probed N times and — when
// evicted between queries or with the cache disabled — read N times. The
// batch unions the candidate clusters of all its queries first (the
// cluster-major signature match), checks the block cache once per cluster,
// and feeds the misses to store.PlanReadRuns as a single coalesced pass:
// each distinct cluster is decoded exactly once and verified against every
// interested query while its columns are hot, and the seek-sorted sweep
// coalesces across query boundaries — a batch costs strictly fewer seeks
// than its looped equivalent whenever queries share clusters or their
// clusters adjoin on the device.
//
// Accounting: the per-(cluster,query) CPU charges (Explorations,
// ObjectsVerified, BytesVerified, Results) are exactly the looped
// single-query ones. The I/O charges reflect the actual device traffic the
// batch saves: one CacheHit or CacheMiss per distinct cluster, one Seek and
// the run's byte length per coalesced run over the union.

import (
	"fmt"

	"accluster/internal/blockcache"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
	"accluster/internal/store"
)

// pairOf returns the position of cluster ci in the cluster-major match
// (binary search; match.Clusters is ascending by construction).
//
//ac:noalloc
func (sc *batchScratch) pairOf(ci int32) int {
	lo, hi := 0, len(sc.Match.Clusters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sc.Match.Clusters[mid] < ci {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchIDsBatch executes every query in qs in one engine pass and fills
// dst with the per-query result sets (dst.Query(i) holds query i's ids).
// The batch unions the candidate clusters of all queries, verifies cached
// regions first, then reads the union's misses as one coalesced seek-sorted
// sweep — each distinct region decoded once and verified against every
// interested query. Result order within a query follows the pass order
// (cached regions, then misses by device offset), as in the single-query
// methods. An invalid query fails the whole batch before any of it
// executes; a read error leaves dst reset, with no partial answers. With
// every region cached a warm batch allocates nothing.
//
//ac:noalloc
func (e *Engine) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	if !rel.Valid() {
		//acvet:ignore noalloc cold argument-validation failure path
		return fmt.Errorf("diskengine: invalid relation %v", rel)
	}
	for i := range qs {
		if qs[i].Dims() != e.dims {
			//acvet:ignore noalloc cold argument-validation failure path
			return fmt.Errorf("diskengine: batch query %d has %d dims, database has %d", i, qs[i].Dims(), e.dims)
		}
	}
	dst.Reset(len(qs))
	if len(qs) == 0 {
		return nil
	}
	sc := e.scratch.Get().(*batchScratch)
	out := sc.Accumulate(len(qs))
	err := e.read(sc, qs, rel, nil, &out)
	if err == nil {
		sc.Collect(dst)
	}
	e.scratch.Put(sc)
	return err
}

// read is the read phase: one signature pass for the batch, then the hit
// pass — the union's cached regions, in mirror order, verified against all
// their interested queries while pinned, one cache probe per distinct
// cluster and no I/O — then the misses as one coalesced read pass. Answers
// go to emit (a batch of one only) or dst; once emit returns false the
// remaining regions stay unprobed, unread and uncharged. The meter delta
// merges even when the read fails.
//
//ac:noalloc
func (e *Engine) read(sc *batchScratch, qs []geom.Rect, rel geom.Relation, emit func(id uint32) bool, dst *sig.Sink) error {
	nq := len(qs)
	sc.meter = cost.Meter{}
	sc.meter.Queries += int64(nq)
	sc.meter.SigChecks += int64(nq) * int64(len(e.dir))
	sc.Prepare(e.sigBounds, len(e.dir), e.dims, e.sigSel, qs, rel)
	sc.miss = sc.miss[:0]
	keep := true
	for p, ci := range sc.Match.Clusters {
		if e.cache != nil {
			if r, ok := e.cache.Get(blockcache.Key{Gen: e.gen, Cluster: ci}); ok {
				sc.meter.CacheHits++
				keep = e.verify(sc, r, ci, p, emit, dst)
				e.cache.Unpin(r)
				if !keep {
					break
				}
				continue
			}
		}
		sc.miss = append(sc.miss, ci)
	}
	var err error
	if keep && len(sc.miss) > 0 {
		err = e.readMisses(sc, emit, dst)
	}
	e.meter.Merge(sc.meter)
	return err
}

// readMisses runs the miss pass: one coalesced read plan over the missed
// regions (sorted by device offset), read run by run, each region decoded
// once and verified against every query interested in it as it arrives —
// an early stop leaves later runs unread and uncharged. Decoded regions are
// offered to the cache.
//
//ac:noalloc
func (e *Engine) readMisses(sc *batchScratch, emit func(id uint32) bool, dst *sig.Sink) error {
	sc.runs = store.PlanReadRuns(e.dir, sc.miss, e.dims, e.maxGap, sc.runs[:0])
	for _, run := range sc.runs {
		if int64(cap(sc.buf)) < run.Bytes {
			//acvet:ignore noalloc amortized read-buffer growth to the largest coalesced run
			sc.buf = make([]byte, run.Bytes)
		}
		buf := sc.buf[:run.Bytes]
		if _, err := e.dev.ReadAt(buf, run.Offset); err != nil {
			//acvet:ignore noalloc cold device-failure path
			return fmt.Errorf("diskengine: read run at %d: %w", run.Offset, err)
		}
		sc.meter.Seeks++
		sc.meter.BytesTransferred += run.Bytes
		for k := 0; k < run.N; k++ {
			ci := sc.miss[run.First+k]
			ent := e.dir[ci]
			img := buf[ent.Offset-run.Offset : ent.Offset-run.Offset+int64(ent.RegionBytes(e.dims))]
			var r *blockcache.Region
			if e.cache != nil {
				//acvet:ignore noalloc cache-miss region insert; the pinned warm path is all hits
				r = new(blockcache.Region)
			} else {
				if sc.local == nil {
					//acvet:ignore noalloc one-time lazy init of the cacheless scratch region
					sc.local = new(blockcache.Region)
				}
				r = sc.local
			}
			r.Reset(ent.Count, e.dims)
			if err := store.DecodeRegionColumns(img, ent, e.dims, r.IDs, r.Cols()); err != nil {
				return err
			}
			if e.cache != nil {
				sc.meter.CacheMisses++
				r = e.cache.Put(blockcache.Key{Gen: e.gen, Cluster: ci}, r)
			}
			keep := e.verify(sc, r, ci, sc.pairOf(ci), emit, dst)
			if e.cache != nil {
				e.cache.Unpin(r)
			}
			if !keep {
				return nil
			}
		}
	}
	return nil
}

// verify explores one region — match position p, cluster ci — for every
// query interested in it, delivering the survivors to emit or dst; it
// reports false once emit stopped the read phase.
//
//ac:noalloc
func (e *Engine) verify(sc *batchScratch, r *blockcache.Region, ci int32, p int, emit func(id uint32) bool, dst *sig.Sink) bool {
	stride := 4 * e.dims
	return sc.Explore(p, e.sigBounds[int(ci)*stride:(int(ci)+1)*stride], r.IDs, r.Lo, r.Hi, emit, dst, &sc.meter)
}
