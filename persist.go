package accluster

import (
	"accluster/internal/core"
	"accluster/internal/shard"
	"accluster/internal/store"
)

// ErrCorrupt is the sentinel wrapped by every integrity failure detected
// while loading or verifying a checkpoint (checksum mismatches, truncated
// files, implausible headers). Distinguish damage from transient I/O errors
// with errors.Is(err, ErrCorrupt), and read the detail with errors.As into a
// *CorruptError.
var ErrCorrupt = store.ErrCorrupt

// CorruptError describes one detected integrity failure; it unwraps to
// ErrCorrupt.
type CorruptError = store.CorruptError

// SaveFile checkpoints the adaptive index into a database file using the
// paper's disk layout (§6): clusters stored sequentially with reserved
// slots (≥70% utilization) and a checksummed directory for fail recovery.
// The adaptive query statistics (per-cluster and per-candidate indicators
// plus the decayed window) are persisted in a format-versioned block, so a
// recovered index resumes adaptation warm; files written by older versions
// (no block) still load and re-gather statistics.
//
// The save is atomic and durable: the checkpoint is written to a temporary
// file, synced to media, and renamed over path (with the parent directory
// synced) — a crash, I/O error or full disk at any point leaves either the
// previous file or the complete new one, never a torn mix.
func (a *Adaptive) SaveFile(path string) error {
	return a.l.Exclusive(func(ix *core.Index) error { return store.SaveFile(ix, path) })
}

// OpenAdaptive recovers an adaptive index from a database file written by
// SaveFile, validating every checksum. The file is opened read-only and a
// missing path is an error (earlier versions silently created an empty
// file). The options configure the recovered index (scenario,
// reorganization period, …); the dimensionality comes from the file.
// Integrity failures wrap ErrCorrupt.
func OpenAdaptive(path string, opts ...Option) (*Adaptive, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	ix, err := store.LoadFile(path, coreConfig(0, o))
	if err != nil {
		return nil, err
	}
	return newAdaptive(ix, o)
}

// SaveDir checkpoints the sharded index into a directory: one database
// segment per shard in the paper's disk layout plus a checksummed manifest
// recording the shard count. Checkpoints are generational: a new save
// writes a complete new generation of segments, syncs them, then atomically
// flips the manifest before garbage-collecting the old generation — a crash
// at any point leaves either the previous or the new checkpoint loadable.
// Shards are written in parallel, each under its own lock — quiesce writers
// if a point-in-time snapshot of the whole engine is required. Each segment
// carries its shard's adaptive query statistics, so OpenSharded resumes
// adaptation warm.
func (s *Sharded) SaveDir(dir string) error { return s.e.SaveDir(dir) }

// OpenSharded recovers a sharded index from a directory written by SaveDir,
// validating every checksum. The options configure the recovered index; the
// shard count and dimensionality come from the manifest (WithShards is
// ignored — the save-time partitioning is part of the data). Integrity
// failures wrap ErrCorrupt.
//
// With WithSalvage the open degrades instead of failing when segments are
// damaged: the corrupt shards are quarantined (started empty) and the
// healthy partitions are served. Stats reports the quarantine count and
// Quarantined the details; repopulate with RestoreQuarantined or repair the
// directory offline with cmd/acfsck.
func OpenSharded(dir string, opts ...Option) (*Sharded, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	e, err := shard.LoadDir(dir, shard.Config{
		Workers: o.fanout,
		Salvage: o.salvage,
		Core:    coreConfig(0, o),
	})
	if err != nil {
		return nil, err
	}
	return newSharded(e, o)
}
