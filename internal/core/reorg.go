package core

// Cluster reorganization (§3.4, Figs. 1–3), incremental and budgeted.
//
// The paper revisits every materialized cluster each ReorgEvery queries: a
// cluster is merged back into its parent when the merging benefit function is
// positive, otherwise its best positive-benefit candidate subclusters are
// materialized greedily. Running that whole pass synchronously inside one
// query makes every ReorgEvery-th caller absorb an O(clusters) (and
// O(objects relocated)) latency spike, so the pass is decomposed into
// bounded steps over a work queue:
//
//   - Every ReorgEvery queries a new *reorganization epoch* begins: the
//     statistics window is decayed once (cluster and candidate indicators
//     decay lazily — see syncStats) and every materialized cluster is
//     enqueued for one revisit, ordered by its cached benefit estimate from
//     the previous revisit (best merge/materialization benefit, refreshed
//     lazily when the cluster is actually processed).
//   - The queue then drains under a fixed budget (reorgBudgetClusters
//     revisits and reorgBudgetObjects relocations per step, publish.go), one
//     step per applied query, taken by DrainStats once the query's
//     statistics record is applied.
//
// Because the window and the per-cluster indicators are decayed by the same
// factor per epoch, every access probability q/W a revisit observes is
// exactly the value the synchronous full pass would have used — the aging
// semantics are equivalent; only the position of the merge/split work in the
// query stream changes.

import "accluster/internal/sig"

// Reorganize drains the reorganization queue until it converges: a new epoch
// is opened (decaying the statistics window exactly once, as the synchronous
// full pass did) and then every pending revisit runs with no budget. It is
// exported so callers can force convergence — after bulk loading plus query
// warm-up, or before comparing clusterings in tests and calibration.
//
//ac:excl
func (ix *Index) Reorganize() {
	ix.exclusivePrep()
	ix.beginEpoch()
	ix.drain(-1, -1)
}

// beginEpoch starts a reorganization round: the decayed query total ages by
// the configured factor (per-cluster statistics age lazily via syncStats, by
// the same factor per epoch) and every live cluster is queued for a revisit,
// ordered by the benefit estimate cached at its previous revisit.
//
// Under heavy churn an epoch can roll while revisits from the previous one
// are still queued. That is by design, not a failure: the benefit ordering
// runs the profitable merges and materializations in the earliest steps, so
// what carries over is the low-benefit tail — revisits that would mostly
// no-op; Reorganize runs the whole queue when strict per-epoch currency is
// wanted.
func (ix *Index) beginEpoch() {
	ix.sinceReorg = 0
	ix.epoch++
	ix.reorgRounds++
	ix.window *= ix.cfg.Decay
	for _, c := range ix.clusters {
		ix.enqueueReorg(c)
	}
}

// enqueueReorg adds c to the revisit queue at its cached priority (no-op if
// already queued or removed).
func (ix *Index) enqueueReorg(c *Cluster) {
	if c.queued || c.removed {
		return
	}
	c.queued = true
	ix.reorgQ.push(c)
}

// drain revisits queued clusters until the queue empties or a budget is
// exhausted (negative budgets are unlimited). Merges and materializations
// are chunked — a cluster can fill or empty across several steps — so the
// object budget is a hard cap on the relocations any single step performs.
func (ix *Index) drain(clusterBudget, objectBudget int) {
	visited, moved := 0, 0
	for len(ix.reorgQ) > 0 {
		if clusterBudget >= 0 && visited >= clusterBudget {
			return
		}
		if objectBudget >= 0 && moved >= objectBudget {
			return
		}
		c := ix.reorgQ.pop()
		c.queued = false
		if c.removed {
			continue
		}
		visited++
		remaining := -1
		if objectBudget >= 0 {
			remaining = objectBudget - moved
		}
		n, done := ix.revisit(c, remaining)
		moved += n
		if !done {
			// The split loop ran out of object budget with positive-
			// benefit candidates left: the cluster keeps its place in
			// the queue (at the refreshed priority) for the next step.
			ix.enqueueReorg(c)
			return
		}
	}
}

// revisit applies the Fig. 1 decision to c under an object budget (negative
// = unlimited): merge into the parent when profitable, otherwise materialize
// positive-benefit candidates. It returns the number of objects relocated
// and whether the revisit completed (false = requeue and continue next
// step). The best benefit observed is cached on the cluster as its queue
// priority for the next epoch.
func (ix *Index) revisit(c *Cluster, objectBudget int) (moved int, done bool) {
	ix.syncStats(c)
	// Merge hysteresis: a cluster created this epoch (the synchronous
	// pass never revisited same-round children either) or still being
	// filled by its parent's pinned split carries statistics that mirror
	// the parent's — a merge decision about it would be a decision about
	// the parent, and merging a half-filled child back just wastes the
	// relocations. Skip it until the transfer completes and it has aged
	// one epoch.
	if c != ix.root && c.parent != nil && !c.parent.removed &&
		ix.epoch-c.createdEpoch >= 1 && c.parent.activeChild != c {
		ix.syncStats(c.parent)
		pc, pa := ix.prob(c.q), ix.prob(c.parent.q)
		if b := ix.cfg.Params.MergingBenefit(pc, pa, c.Len(), ix.objBytes); b > 0 {
			c.prio = b
			return ix.mergeCluster(c, objectBudget)
		}
	}
	return ix.splitUnderBudget(c, objectBudget)
}

// splitUnderBudget (Fig. 3) greedily materializes the most profitable
// candidate subclusters of c until none has positive benefit or the object
// budget is exhausted. The candidate set is re-evaluated after every
// materialization chunk because moving objects out of c updates the
// indicators of the remaining candidates.
func (ix *Index) splitUnderBudget(c *Cluster, objectBudget int) (moved int, done bool) {
	cs := &c.cands
	for {
		// Continue a pinned in-progress materialization before weighing
		// any other candidate: overlapping candidates (other dimensions)
		// still count the members the active split has yet to move, so
		// their benefits are inflated until it completes — evaluating
		// them mid-split is what the synchronous atomic pass never did.
		ci := c.activeSplit
		if ci < 0 || ci >= cs.len() || cs.n[ci] <= 0 {
			pc := ix.prob(c.q)
			best := -1
			var bestBenefit float64
			for i := 0; i < cs.len(); i++ {
				if cs.n[i] <= 0 {
					continue
				}
				ps := ix.prob(cs.q[i])
				if ps > pc {
					ps = pc // counters guarantee q_s ≤ q_c; clamp defensively
				}
				b := ix.cfg.Params.MaterializationBenefit(pc, ps, int(cs.n[i]), ix.objBytes)
				if b > 0 && (best < 0 || b > bestBenefit) {
					best, bestBenefit = i, b
				}
			}
			if best < 0 {
				c.activeSplit = -1
				c.activeChild = nil
				c.prio = 0
				return moved, true
			}
			ci = best
			c.activeSplit = ci
			c.splitCursor = len(c.ids) - 1
			c.prio = bestBenefit
		}
		limit := -1
		if objectBudget >= 0 {
			if limit = objectBudget - moved; limit <= 0 {
				return moved, false
			}
		}
		child, n := ix.materialize(c, ci, limit)
		child.prio = c.prio
		c.activeChild = child
		moved += n
		if cs.n[ci] <= 0 {
			c.activeSplit = -1
			c.activeChild = nil
		}
	}
}

// materialize (Fig. 3 steps 4–11) moves members qualifying for candidate ci
// of c into a database cluster with the candidate's signature — created on
// the first chunk (inheriting the candidate's query statistics), found among
// c's children on continuation chunks. At most limit members move per call
// (negative = all), so one reorganization step never relocates more than its
// object budget: a large split simply fills its cluster across several
// steps, the candidate's shrinking membership indicator tracking the
// remainder.
func (ix *Index) materialize(c *Cluster, ci int, limit int) (*Cluster, int) {
	cs := &c.cands
	g, sp := cs.split(ci)
	csig := sp.Child(c.signature)
	var child *Cluster
	for _, ch := range c.children {
		if ch.signature.Equal(csig) {
			child = ch
			break
		}
	}
	if child == nil {
		child = newCluster(csig, ix.cfg.DivisionFactor)
		child.parent = c
		child.q = cs.q[ci]
		child.statsEpoch = ix.epoch
		child.createdEpoch = ix.epoch
		c.children = append(c.children, child)
		child.pos = len(ix.clusters)
		ix.clusters = append(ix.clusters, child)
		ix.appendSigBounds(child.signature)
		ix.splits++
	}

	// Walk members downward from the resume cursor. A removal swaps the
	// tail element into the current slot, which is then re-examined —
	// between chunks, inserts and deletes can place never-examined
	// members anywhere, so the walk re-checks swapped-in slots and wraps
	// around once if the candidate's indicator says members remain.
	moved := 0
	a, b, _ := cs.sides(g)
	aLo, aHi, bLo, bHi := a[sp.IA], a[sp.IA+1], b[sp.IB], b[sp.IB+1]
	i := c.splitCursor
	wrapped := false
	for {
		if i >= len(c.ids) {
			i = len(c.ids) - 1
		}
		if i < 0 {
			if cs.n[ci] > 0 && !wrapped {
				wrapped = true
				i = len(c.ids) - 1
				continue
			}
			break
		}
		if limit >= 0 && moved >= limit {
			break
		}
		if !sig.InVar(c.lo[g.dim][i], aLo, aHi) || !sig.InVar(c.hi[g.dim][i], bLo, bHi) {
			i--
			continue
		}
		id := c.ids[i]
		pos := child.appendRow(c, i)
		moveCounts(c, child, i, g.dim)
		movedID, swapped := c.removeRow(i)
		ix.loc[id] = objLoc{c: child, pos: int32(pos)}
		if swapped {
			ix.loc[movedID] = objLoc{c: c, pos: int32(i)}
		}
		ix.objectsRelocated++
		moved++
	}
	c.splitCursor = i
	return child, moved
}

// mergeCluster (Fig. 2) transfers members of c to its parent — at most
// limit per call (negative = all) — and, once c is empty, reparents its
// children and removes it from the database. A partially merged cluster is
// an ordinary smaller cluster; the merging benefit only grows as it drains,
// so the decision is re-confirmed and the transfer resumed at the next
// revisit. A queued cluster removed here keeps its heap slot and is skipped
// (via the removed flag) when popped.
func (ix *Index) mergeCluster(c *Cluster, limit int) (moved int, done bool) {
	a := c.parent
	ix.syncStats(a)
	if limit < 0 || limit >= len(c.ids) {
		// The whole remainder fits this chunk: bulk-transfer without
		// maintaining c's candidate indicators — the candidate set is
		// discarded with the cluster below.
		for i := range c.ids {
			id := c.ids[i]
			pos := a.appendFrom(c, i)
			ix.loc[id] = objLoc{c: a, pos: int32(pos)}
			ix.objectsRelocated++
			moved++
		}
		c.ids = c.ids[:0]
	}
	for len(c.ids) > 0 {
		if limit >= 0 && moved >= limit {
			return moved, false
		}
		i := len(c.ids) - 1
		id := c.ids[i]
		pos := a.appendFrom(c, i)
		c.removeObjectAt(i)
		ix.loc[id] = objLoc{c: a, pos: int32(pos)}
		ix.objectsRelocated++
		moved++
	}
	for _, ch := range c.children {
		ch.parent = a
		a.children = append(a.children, ch)
	}
	a.detachChild(c)

	last := len(ix.clusters) - 1
	ix.clusters[c.pos] = ix.clusters[last]
	ix.clusters[c.pos].pos = c.pos
	ix.clusters = ix.clusters[:last]
	ix.removeSigBoundsAt(c.pos)

	c.removed = true
	c.ids, c.lo, c.hi, c.children = nil, nil, nil, nil
	c.cands = candSet{}
	c.activeSplit = -1
	c.activeChild = nil
	ix.merges++
	return moved, true
}
