package core

import (
	"fmt"
	"math"

	"accluster/internal/geom"
	"accluster/internal/sig"
)

// geomFromSnapshot materializes object k of a flat snapshot block.
func geomFromSnapshot(data []float32, k, dims int) geom.Rect {
	return geom.FromFlat(data, k, dims)
}

// ClusterSnapshot is the persistent image of one materialized cluster: its
// signature, its position in the clustering hierarchy, its members and its
// adaptive query statistics. The paper notes that saving the performance
// indicators is optional since new statistics can be gathered (§6, Fail
// Recovery) — but a cold restart re-learns the query distribution from
// scratch and immediately re-churns splits and merges, so Snapshot captures
// them and Restore applies them when present (Q/CandQ zero/nil restores
// cold, which is how pre-statistics images load). The member block keeps the
// interleaved (row-major) flat layout the on-device store format has always
// used; the in-memory engine transposes between it and its columnar storage
// at snapshot and restore time, so segments written before the columnar
// layout change load unchanged.
type ClusterSnapshot struct {
	// Signature is the cluster's grouping signature.
	Signature sig.Signature
	// Parent is the index of the parent cluster in the snapshot slice,
	// -1 for the root. The root is always the first element.
	Parent int
	// IDs are the member identifiers.
	IDs []uint32
	// Data is the flat coordinate block matching IDs.
	Data []float32
	// Q is the cluster's decayed query indicator, aged to the snapshot
	// epoch.
	Q float64
	// CandQ holds the decayed query indicators of the candidate
	// subclusters in clustering-function enumeration order (nil when the
	// image carries no statistics). Its length must match the candidate
	// set the division factor derives for Signature.
	CandQ []float64
}

// Snapshot captures the index's clusters for persistence, in breadth-first
// order from the root so that every parent precedes its children (merges
// reorder the internal cluster list, so positional order is not
// topological). The returned slices share no storage with the index.
//
//ac:excl
func (ix *Index) Snapshot() []ClusterSnapshot {
	// Apply deferred statistics publications, then age every cluster to
	// the current epoch so the captured indicators are directly
	// comparable with the captured window.
	ix.exclusivePrep()
	ix.syncAllStats()
	order := make([]*Cluster, 0, len(ix.clusters))
	pos := make(map[*Cluster]int, len(ix.clusters))
	queue := []*Cluster{ix.root}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		pos[c] = len(order)
		order = append(order, c)
		queue = append(queue, c.children...)
	}
	out := make([]ClusterSnapshot, len(order))
	for i, c := range order {
		parent := -1
		if c.parent != nil {
			parent = pos[c.parent]
		}
		out[i] = ClusterSnapshot{
			Signature: c.signature.Clone(),
			Parent:    parent,
			IDs:       append([]uint32(nil), c.ids...),
			Data:      c.flatData(),
			Q:         c.q,
			CandQ:     append([]float64(nil), c.cands.q...),
		}
	}
	return out
}

// StatsWindow returns the decayed total query count W the per-cluster
// indicators are measured against, aged to the current epoch. Persist it
// next to the cluster statistics: probabilities only mean q/W.
func (ix *Index) StatsWindow() float64 {
	ix.exclusivePrep()
	return ix.window
}

// SetStatsWindow restores a persisted statistics window on a freshly
// restored index (before any queries run).
//
//ac:excl
func (ix *Index) SetStatsWindow(w float64) error {
	if math.IsNaN(w) || w < 0 {
		return fmt.Errorf("core: invalid statistics window %g", w)
	}
	ix.window = w
	return nil
}

// Restore rebuilds an index from a snapshot. Structural candidate indicators
// (membership counts) are recomputed from the member objects; the query
// statistics carried by the snapshot (Q, CandQ) are applied when present so
// adaptation resumes warm — restore the matching window with SetStatsWindow.
// The snapshot must contain the root cluster first (as produced by
// Snapshot).
func Restore(cfg Config, snap []ClusterSnapshot) (*Index, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(snap) == 0 {
		return nil, fmt.Errorf("core: empty snapshot")
	}
	if !snap[0].Signature.IsRoot() || snap[0].Parent != -1 {
		return nil, fmt.Errorf("core: snapshot[0] is not a root cluster")
	}
	ix, err := New(cfg)
	if err != nil {
		return nil, err
	}
	clusters := make([]*Cluster, len(snap))
	clusters[0] = ix.root
	for i := 1; i < len(snap); i++ {
		cs := snap[i]
		if cs.Signature.Dims() != cfg.Dims {
			return nil, fmt.Errorf("core: snapshot cluster %d has %d dims, want %d", i, cs.Signature.Dims(), cfg.Dims)
		}
		if !cs.Signature.Valid() {
			return nil, fmt.Errorf("core: snapshot cluster %d has a signature outside the unit domain: %v", i, cs.Signature)
		}
		if cs.Parent < 0 || cs.Parent >= len(snap) || cs.Parent == i {
			return nil, fmt.Errorf("core: snapshot cluster %d has invalid parent %d", i, cs.Parent)
		}
		if cs.Parent > i {
			return nil, fmt.Errorf("core: snapshot cluster %d appears before its parent %d", i, cs.Parent)
		}
		c := newCluster(cs.Signature.Clone(), cfg.DivisionFactor)
		c.pos = i
		clusters[i] = c
	}
	for i := 1; i < len(snap); i++ {
		c, p := clusters[i], clusters[snap[i].Parent]
		if !p.signature.Covers(c.signature) {
			return nil, fmt.Errorf("core: snapshot cluster %d not covered by its parent", i)
		}
		c.parent = p
		p.children = append(p.children, c)
	}
	ix.clusters = clusters
	ix.rebuildSigBounds()
	for i, cs := range snap {
		c := clusters[i]
		if len(cs.Data) != len(cs.IDs)*2*cfg.Dims {
			return nil, fmt.Errorf("core: snapshot cluster %d has inconsistent data length", i)
		}
		for k, id := range cs.IDs {
			if _, dup := ix.loc[id]; dup {
				return nil, fmt.Errorf("core: snapshot contains duplicate object id %d", id)
			}
			r := geomFromSnapshot(cs.Data, k, cfg.Dims)
			if !r.Valid() {
				return nil, fmt.Errorf("core: snapshot object %d is not a valid rectangle: %v", id, r)
			}
			if !c.signature.MatchesObject(r) {
				return nil, fmt.Errorf("core: snapshot object %d does not match cluster %d signature", id, i)
			}
			pos := c.appendObject(id, r)
			ix.loc[id] = objLoc{c: c, pos: int32(pos)}
		}
		if err := applyStats(c, cs, i); err != nil {
			return nil, err
		}
	}
	// The reorganization queue is rebuilt deterministically rather than
	// persisted: on a warm restore (statistics present) every cluster is
	// queued for one revisit, a superset of whatever revisits were pending
	// at snapshot time. Converged clusters no-op (no positive-benefit
	// merge or materialization), so the burst drains in a few budgeted
	// steps. A cold restore (no statistics, e.g. a version-1 image) keeps
	// the queue empty: with every probability at zero the merging benefit
	// degenerates to +A for all clusters, and revisiting would fold the
	// loaded clustering into the root before fresh statistics accrue.
	warm := false
	for _, cs := range snap {
		if cs.CandQ != nil || cs.Q > 0 {
			warm = true
			break
		}
	}
	if warm {
		for _, c := range clusters {
			ix.enqueueReorg(c)
		}
	}
	return ix, nil
}

// applyStats installs a snapshot's query indicators on the rebuilt cluster,
// validating the ranges the invariants rely on (non-negative, candidates not
// exceeding their owner, candidate count matching the clustering function).
func applyStats(c *Cluster, cs ClusterSnapshot, i int) error {
	if math.IsNaN(cs.Q) || cs.Q < 0 {
		return fmt.Errorf("core: snapshot cluster %d has invalid query indicator %g", i, cs.Q)
	}
	c.q = cs.Q
	if cs.CandQ == nil {
		return nil
	}
	if len(cs.CandQ) != c.cands.len() {
		return fmt.Errorf("core: snapshot cluster %d carries %d candidate indicators, clustering function derives %d",
			i, len(cs.CandQ), c.cands.len())
	}
	for k, q := range cs.CandQ {
		if math.IsNaN(q) || q < 0 || q > cs.Q+1e-9 {
			return fmt.Errorf("core: snapshot cluster %d candidate %d has invalid indicator %g (cluster %g)", i, k, q, cs.Q)
		}
		c.cands.q[k] = q
	}
	return nil
}
