package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"

	"accluster/internal/core"
	"accluster/internal/store"
)

// A sharded database is a directory: one store-format segment per shard
// plus a checksummed MANIFEST recording the shard count, dimensionality and
// the committed generation. Checkpoints are generational: SaveDir writes a
// complete new generation of segments (shard-NNNN-gGGGGGG.acdb), syncs them
// to media, then atomically flips the manifest to point at it; the previous
// generation is garbage-collected only after the flip. A crash at any point
// therefore leaves either the old or the new checkpoint loadable — never a
// mix, never total loss. The shard count is part of the data's identity —
// objects were partitioned by the save-time hash — so a load always
// restores the saved count regardless of the configured default.

const (
	manifestName   = "MANIFEST"
	manifestMagic  = 0x4143534d // "ACSM"
	manifestSizeV1 = 20
	manifestSizeV2 = 28
)

// manifest is the decoded directory manifest.
type manifest struct {
	version int
	shards  int
	dims    int
	gen     uint64 // committed generation; 0 on version-1 manifests
}

// corruptf builds a store.CorruptError, so manifest damage matches
// store.ErrCorrupt under errors.Is like every other integrity failure.
func corruptf(format string, args ...any) error {
	return &store.CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// segmentName returns the file name of one shard's segment in a generation;
// generation 0 is the legacy un-tagged layout of version-1 manifests.
func segmentName(i int, gen uint64) string {
	if gen == 0 {
		return fmt.Sprintf("shard-%04d.acdb", i)
	}
	return fmt.Sprintf("shard-%04d-g%06d.acdb", i, gen)
}

// parseSegmentName decodes a segment file name; ok is false for any file
// that is not exactly a segment of some generation.
func parseSegmentName(name string) (shard int, gen uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "shard-%d-g%d.acdb", &shard, &gen); err == nil {
		if shard >= 0 && gen > 0 && name == segmentName(shard, gen) {
			return shard, gen, true
		}
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(name, "shard-%d.acdb", &shard); err == nil {
		if shard >= 0 && name == segmentName(shard, 0) {
			return shard, 0, true
		}
	}
	return 0, 0, false
}

// encodeManifest renders a version-2 manifest block.
func encodeManifest(m manifest) []byte {
	man := make([]byte, manifestSizeV2)
	binary.LittleEndian.PutUint32(man[0:], manifestMagic)
	binary.LittleEndian.PutUint32(man[4:], 2)
	binary.LittleEndian.PutUint32(man[8:], uint32(m.shards))
	binary.LittleEndian.PutUint32(man[12:], uint32(m.dims))
	binary.LittleEndian.PutUint64(man[16:], m.gen)
	binary.LittleEndian.PutUint32(man[24:], crc32.ChecksumIEEE(man[:24]))
	return man
}

// decodeManifest validates and decodes a manifest block of either version.
func decodeManifest(man []byte) (manifest, error) {
	var m manifest
	switch len(man) {
	case manifestSizeV1, manifestSizeV2:
	default:
		return m, corruptf("manifest has %d bytes", len(man))
	}
	if crc32.ChecksumIEEE(man[:len(man)-4]) != binary.LittleEndian.Uint32(man[len(man)-4:]) {
		return m, corruptf("manifest checksum mismatch")
	}
	if binary.LittleEndian.Uint32(man[0:]) != manifestMagic {
		return m, corruptf("not a sharded database manifest")
	}
	m.version = int(binary.LittleEndian.Uint32(man[4:]))
	switch {
	case m.version == 1 && len(man) == manifestSizeV1:
	case m.version == 2 && len(man) == manifestSizeV2:
		m.gen = binary.LittleEndian.Uint64(man[16:])
		if m.gen == 0 {
			return manifest{}, corruptf("version-2 manifest with generation 0")
		}
	default:
		return manifest{}, corruptf("unsupported manifest version %d (%d bytes)", m.version, len(man))
	}
	m.shards = int(binary.LittleEndian.Uint32(man[8:]))
	m.dims = int(binary.LittleEndian.Uint32(man[12:]))
	if m.shards < 1 || m.shards > maxShards || m.shards != ceilPow2(m.shards) || m.dims < 1 {
		return manifest{}, corruptf("implausible manifest: shards=%d dims=%d", m.shards, m.dims)
	}
	return m, nil
}

// readManifest reads, validates and decodes the directory manifest.
func readManifest(fsys store.FS, dir string) (manifest, error) {
	man, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, fmt.Errorf("shard: open manifest: %w", err)
	}
	m, err := decodeManifest(man)
	if err != nil {
		return manifest{}, fmt.Errorf("shard: manifest in %s: %w", dir, err)
	}
	return m, nil
}

// nextGeneration picks the generation for a new checkpoint: one past both
// the committed generation and any uncommitted segments a crashed save left
// behind, so a new save never collides with leftovers.
func nextGeneration(fsys store.FS, dir string) uint64 {
	var g uint64
	if man, err := fsys.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		if m, err := decodeManifest(man); err == nil {
			g = m.gen
		}
	}
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, name := range names {
			if _, sg, ok := parseSegmentName(name); ok && sg > g {
				g = sg
			}
		}
	}
	return g + 1
}

// SaveDir checkpoints every shard into dir (created if missing) as a new
// generation, atomically replacing any previous checkpoint there: segments
// are fully written and synced (file and directory) before the manifest
// flips, and only then is the previous generation garbage-collected — a
// crash, I/O error or full disk at any point leaves either the old or the
// new checkpoint loadable. Shards are written in parallel (sequentially on
// single-worker engines); each shard is checkpointed under its own lock, so
// a save concurrent with writes is internally consistent per shard but not
// a point-in-time snapshot of the whole engine — quiesce writers for that.
func (e *Engine) SaveDir(dir string) error { return e.SaveDirFS(store.OS, dir) }

// SaveDirFS is SaveDir over an explicit filesystem (fault injection).
func (e *Engine) SaveDirFS(fsys store.FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	gen := nextGeneration(fsys, dir)
	err := e.forEachShard(func(i int, s *Locked) error {
		f, err := fsys.Create(filepath.Join(dir, segmentName(i, gen)))
		if err != nil {
			return err
		}
		err = s.Exclusive(func(ix *core.Index) error {
			return store.Save(ix, f) // writes, truncates and syncs the segment
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	// Make the new generation's names durable before the manifest can
	// reference them.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	man := encodeManifest(manifest{version: 2, shards: len(e.shards), dims: e.Dims(), gen: gen})
	if err := store.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), man); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	e.generation.Store(gen)
	// The flip is durable; dropping the previous generation is cleanup.
	// A failure here is reported but the new checkpoint stays committed.
	if err := gcDir(fsys, dir, len(e.shards), gen); err != nil {
		return fmt.Errorf("shard: save: checkpoint committed, stale-file cleanup failed: %w", err)
	}
	return nil
}

// gcDir removes every file of dir that is not part of the committed
// generation: segments of other generations, out-of-range shard indexes and
// leftover temporary files. Unrecognized names are left alone.
func gcDir(fsys store.FS, dir string, shards int, keep uint64) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, name := range names {
		stale := strings.HasSuffix(name, ".tmp")
		if i, g, ok := parseSegmentName(name); ok && (g != keep || i >= shards) {
			stale = true
		}
		if !stale {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// loadSegment opens and validates one shard's segment.
func loadSegment(fsys store.FS, path string, cfg core.Config) (*core.Index, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.Load(f, cfg)
}

// LoadDir recovers a sharded engine from a directory written by SaveDir,
// validating every segment checksum. cfg supplies the runtime parameters;
// the shard count and dimensionality come from the manifest (cfg.Core.Dims
// must match the stored dimensionality or be zero to adopt it).
//
// With cfg.Salvage the load degrades instead of failing: segments that are
// missing or fail validation are quarantined — the engine starts with those
// shards empty and serves the remaining partitions — and the damage is
// reported by Quarantined and ShardInfos. Selections on a degraded engine
// return the answers of the healthy shards only. Repopulate with
// RestoreQuarantined (or repair the directory offline with cmd/acfsck) to
// return to full health.
func LoadDir(dir string, cfg Config) (*Engine, error) { return LoadDirFS(store.OS, dir, cfg) }

// LoadDirFS is LoadDir over an explicit filesystem.
func LoadDirFS(fsys store.FS, dir string, cfg Config) (*Engine, error) {
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if cfg.Core.Dims != 0 && cfg.Core.Dims != m.dims {
		return nil, fmt.Errorf("shard: database has %d dims, config wants %d", m.dims, cfg.Core.Dims)
	}
	cfg.Core.Dims = m.dims
	ixs := make([]*core.Index, m.shards)
	var quarantined []QuarantinedShard
	for i := range ixs {
		ix, err := loadSegment(fsys, filepath.Join(dir, segmentName(i, m.gen)), cfg.Core)
		if err != nil {
			if !cfg.Salvage {
				return nil, fmt.Errorf("shard: segment %d: %w", i, err)
			}
			quarantined = append(quarantined, QuarantinedShard{Shard: i, Err: err})
			continue
		}
		ixs[i] = ix
	}
	if len(quarantined) == len(ixs) {
		return nil, fmt.Errorf("shard: salvage %s: no loadable segments (first: %w)", dir, quarantined[0].Err)
	}
	for i := range ixs {
		if ixs[i] != nil {
			continue
		}
		ix, err := core.New(cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("shard: salvage: %w", err)
		}
		ixs[i] = ix
	}
	e, err := Wrap(cfg, ixs)
	if err != nil {
		return nil, err
	}
	e.generation.Store(m.gen)
	e.quarantined = quarantined
	return e, nil
}
