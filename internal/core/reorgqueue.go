package core

import "math"

// The reorganization work queue is a max-heap of clusters ordered by the
// benefit estimate cached at each cluster's previous revisit (c.prio): the
// revisits most likely to pay — a profitable merge or materialization —
// happen in the earliest budgeted steps of an epoch, so clustering quality
// under budget pressure degrades from the cheap end first. The heap is
// hand-rolled over a plain slice (no container/heap interface boxing) and
// keeps its backing array across epochs, so steady-state scheduling
// allocates nothing.

// reorgHeap is a max-heap on Cluster.prio.
type reorgHeap []*Cluster

func (h *reorgHeap) push(c *Cluster) {
	*h = append(*h, c)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].prio >= q[i].prio {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *reorgHeap) pop() *Cluster {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil // release the reference; the backing array is retained
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(q) && q[l].prio > q[best].prio {
			best = l
		}
		if r < len(q) && q[r].prio > q[best].prio {
			best = r
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// Epoch-based lazy decay: beginEpoch ages the global window eagerly (one
// multiplication) while every cluster records the epoch its statistics were
// last aged to. Touching a cluster — exploring it in a query, revisiting it
// in a reorganization step, snapshotting it — first applies the deferred
// factor Decay^(epoch - statsEpoch) to its own and its candidates' query
// indicators. A probability q/W therefore always compares like with like,
// and the aging a cluster has experienced by the time a reorganization
// decision reads it is exactly what the synchronous full pass would have
// applied.

// decayFactor returns Decay^delta with fast paths for the common deltas.
func (ix *Index) decayFactor(delta int64) float64 {
	switch delta {
	case 0:
		return 1
	case 1:
		return ix.cfg.Decay
	}
	return math.Pow(ix.cfg.Decay, float64(delta))
}

// syncStats applies the deferred decay to c's query indicators, bringing
// them up to the current epoch.
func (ix *Index) syncStats(c *Cluster) { ix.syncStatsTo(c, ix.epoch) }

// syncStatsTo ages c's query indicators to epoch, which may lie ahead of
// the current one while a statistics record is applied (applyRecord).
func (ix *Index) syncStatsTo(c *Cluster, epoch int64) {
	if c.statsEpoch == epoch {
		return
	}
	f := ix.decayFactor(epoch - c.statsEpoch)
	c.statsEpoch = epoch
	c.q *= f
	q := c.cands.q
	for i := range q {
		q[i] *= f
	}
}

// effectiveQ returns c's query indicator as of the current epoch without
// mutating the cluster (read-only probability checks, e.g. insertion
// placement).
func (ix *Index) effectiveQ(c *Cluster) float64 {
	if c.statsEpoch == ix.epoch {
		return c.q
	}
	return c.q * ix.decayFactor(ix.epoch-c.statsEpoch)
}

// syncAllStats brings every cluster up to the current epoch (snapshot and
// invariant paths).
func (ix *Index) syncAllStats() {
	for _, c := range ix.clusters {
		ix.syncStats(c)
	}
}
