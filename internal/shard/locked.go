package shard

import (
	"sync"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
)

// Locked is one adaptive index behind its reader/writer lock, and the only
// place that lock's discipline is written down: accluster.Adaptive holds
// one, Engine holds one per shard, and the pub/sub broker holds one.
//
//   - Selections and gauges hold the lock shared, so concurrent queries
//     verify the same index in parallel. Each read's recorded statistics
//     are published after RUnlock through core.TryDrainStats, which takes
//     the lock exclusively only when it is free and blocks only once the
//     backlog reaches core.StatsBacklogMax.
//   - Mutations, Reorganize and Exclusive hold the lock exclusively.
//
// Every read path is its own method with RLock and RUnlock in its body, so
// the lockdiscipline analyzer sees each shared-lock region.
type Locked struct {
	mu sync.RWMutex
	ix *core.Index
}

// NewLocked puts ix behind a lock.
func NewLocked(ix *core.Index) *Locked { return &Locked{ix: ix} }

// publish is a read's publication phase, run after RUnlock: apply the queued
// statistics records if the lock is free (core.TryDrainStats). A record left
// behind is applied by the next exclusive holder, whoever that is.
func (l *Locked) publish() { l.ix.TryDrainStats(&l.mu) }

// Get returns the rectangle stored under id.
func (l *Locked) Get(id uint32) (geom.Rect, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Get(id)
}

// Search streams the selection's answers to emit inside the read phase,
// under the shared lock: emit returning false leaves the remaining clusters
// unexplored and uncharged. emit must not call back into the index.
//
//ac:noalloc
func (l *Locked) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	l.mu.RLock()
	err := l.ix.SearchRead(q, rel, emit)
	l.mu.RUnlock()
	l.publish()
	return err
}

// SearchIDsAppend appends the identifiers of all qualifying objects to dst.
//
//ac:noalloc
func (l *Locked) SearchIDsAppend(dst []uint32, q geom.Rect, rel geom.Relation) ([]uint32, error) {
	l.mu.RLock()
	ids, err := l.ix.SearchIDsAppendRead(dst, q, rel)
	l.mu.RUnlock()
	l.publish()
	return ids, err
}

// SearchIDsBatch answers every query of qs in one read phase and publishes
// the whole batch's statistics as one record.
//
//ac:noalloc
func (l *Locked) SearchIDsBatch(dst *geom.IDBatch, qs []geom.Rect, rel geom.Relation) error {
	l.mu.RLock()
	err := l.ix.SearchBatchRead(dst, qs, rel)
	l.mu.RUnlock()
	l.publish()
	return err
}

// Count returns the number of qualifying objects.
//
//ac:noalloc
func (l *Locked) Count(q geom.Rect, rel geom.Relation) (int, error) {
	l.mu.RLock()
	n, err := l.ix.CountRead(q, rel)
	l.mu.RUnlock()
	l.publish()
	return n, err
}

// Len returns the number of stored objects.
func (l *Locked) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Len()
}

// Clusters returns the number of materialized clusters.
func (l *Locked) Clusters() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Clusters()
}

// Info snapshots the index's gauges under one shared acquisition.
// Quarantined is left false: quarantine is a property of an Engine's
// partition, not of the index.
func (l *Locked) Info() ShardInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return ShardInfo{
		Objects:      l.ix.Len(),
		Clusters:     l.ix.Clusters(),
		ReorgBacklog: l.ix.ReorgBacklog(),
		StatsBacklog: l.ix.StatsBacklog(),
		Epoch:        l.ix.Epoch(),
		ReorgRounds:  l.ix.ReorgRounds(),
		Splits:       l.ix.Splits(),
		Merges:       l.ix.Merges(),
		Meter:        l.ix.Meter(),
	}
}

// Dims returns the data space dimensionality (immutable; no lock).
func (l *Locked) Dims() int { return l.ix.Dims() }

// Meter returns the operation counters. They are merged race-free per
// query, so no lock is needed.
func (l *Locked) Meter() cost.Meter { return l.ix.Meter() }

// ResetMeter zeroes the operation counters (clustering statistics are kept).
func (l *Locked) ResetMeter() { l.ix.ResetMeter() }

// Insert adds an object.
func (l *Locked) Insert(id uint32, r geom.Rect) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Insert(id, r)
}

// Update replaces the rectangle stored under id.
func (l *Locked) Update(id uint32, r geom.Rect) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Update(id, r)
}

// Delete removes an object, reporting whether it existed.
func (l *Locked) Delete(id uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Delete(id)
}

// Reorganize forces a full reorganization round.
func (l *Locked) Reorganize() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ix.Reorganize()
}

// Exclusive runs fn with the index held exclusively. It serves the paths
// that need the index quiescent for a whole pass: bulk loads, checkpoints,
// invariant checks and cluster listings.
func (l *Locked) Exclusive(fn func(ix *core.Index) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fn(l.ix)
}
