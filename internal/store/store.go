// Package store persists an adaptive clustering database following the
// paper's disk layout (§6): every cluster is stored sequentially with
// 20–30% reserved slots at its end (so at least 70% storage utilization and
// no cluster move on most insertions), cluster signatures are stored with
// the members, and a directory block at the front of the device records the
// position of each cluster for fail recovery. Since format version 2 the
// adaptive performance indicators are persisted as well, so recovery resumes
// adaptation warm.
//
// The on-device format (little endian):
//
//	header  : magic "ACDB", version, dims, cluster count,
//	          directory length, directory CRC32,
//	          [v2+] stats length, stats CRC32, division factor,
//	          header CRC32
//	directory: per cluster — parent index, member count, capacity
//	          (count + reserve), region offset, region CRC32, signature
//	          (4·dims float32)
//	stats   : [v2+] statistics window float64, then per cluster — query
//	          indicator float64, candidate count uint32, candidate query
//	          indicators [count]float64
//	regions : per cluster — ids [capacity]uint32, coords
//	          [capacity·2·dims]float32 (only count slots are meaningful)
//
// Version 2 adds the adaptive query statistics (departing from the paper's
// "optional to save" stance: a cold restart re-learns the query distribution
// and re-churns the clustering). The statistics block records the division
// factor that enumerated the candidate sets; a load under a different factor
// skips the block and restores cold, and version-1 segments (no block at
// all) keep loading unchanged.
//
// Save writes a full checkpoint; Load validates every checksum and rebuilds
// the index via core.Restore.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"accluster/internal/core"
	"accluster/internal/geom"
	"accluster/internal/sig"
)

const (
	magic      = 0x41434442 // "ACDB"
	version    = 1          // pre-statistics format (no stats block)
	version2   = 2          // adds the adaptive-statistics block
	headerSize = 28         // version-1 header bytes
	headerV2   = 40         // version-2 header bytes
)

// header is the decoded, version-independent device header.
type header struct {
	version   int
	dims      int
	nClusters int
	dirLen    int
	dirCRC    uint32
	// Version-2 fields (zero for version 1).
	statsLen       int
	statsCRC       uint32
	divisionFactor int
	size           int // header bytes on device
}

// ErrCorrupt is the sentinel matched by errors.Is for every integrity
// failure (checksum mismatch, truncation, implausible geometry) detected by
// Load, Verify and the manifest readers. It distinguishes corruption — the
// stored bytes are wrong — from plain I/O errors, so callers can decide
// between salvage and retry.
var ErrCorrupt = errors.New("corrupt database")

// CorruptError is the concrete error carrying the corruption diagnosis;
// match with errors.As for the reason, or errors.Is(err, ErrCorrupt) to
// classify.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "store: corrupt database: " + e.Reason }

// Unwrap makes every CorruptError match ErrCorrupt under errors.Is.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// reserveSlots implements the paper's 20–30% reservation rule: capacity is
// 125% of the live size (≥ 80% utilization), with at least one free slot.
func reserveSlots(n int) int {
	extra := n / 4
	if extra < 1 {
		extra = 1
	}
	return n + extra
}

// entrySize returns the directory entry size for the given dimensionality.
func entrySize(dims int) int {
	return 4 + 4 + 4 + 8 + 4 + 16*dims // parent, count, capacity, offset, crc, signature
}

// regionSize returns the byte size of a cluster region with the given
// capacity.
func regionSize(capacity, dims int) int {
	return capacity*4 + capacity*2*dims*4
}

// statsBlockSize returns the byte size of the version-2 statistics block.
func statsBlockSize(snap []core.ClusterSnapshot) int {
	n := 8 // window
	for _, cs := range snap {
		n += 8 + 4 + 8*len(cs.CandQ)
	}
	return n
}

// encodeStats renders the version-2 statistics block.
func encodeStats(snap []core.ClusterSnapshot, window float64) []byte {
	buf := make([]byte, statsBlockSize(snap))
	binary.LittleEndian.PutUint64(buf, math.Float64bits(window))
	off := 8
	for _, cs := range snap {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(cs.Q))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(cs.CandQ)))
		off += 12
		for _, q := range cs.CandQ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(q))
			off += 8
		}
	}
	return buf
}

// decodeStats parses a statistics block into the snapshot's Q/CandQ fields
// and returns the window.
func decodeStats(buf []byte, snap []core.ClusterSnapshot) (float64, error) {
	if len(buf) < 8 {
		return 0, corrupt("statistics block truncated")
	}
	window := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	off := 8
	for i := range snap {
		if off+12 > len(buf) {
			return 0, corrupt("statistics block truncated at cluster %d", i)
		}
		snap[i].Q = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		ncand := int(binary.LittleEndian.Uint32(buf[off+8:]))
		off += 12
		if ncand < 0 || off+8*ncand > len(buf) {
			return 0, corrupt("statistics block truncated at cluster %d candidates", i)
		}
		qs := make([]float64, ncand)
		for k := range qs {
			qs[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		snap[i].CandQ = qs
	}
	if off != len(buf) {
		return 0, corrupt("statistics block has %d trailing bytes", len(buf)-off)
	}
	return window, nil
}

// Save checkpoints the index onto the device in the version-2 format,
// replacing any previous content.
func Save(ix *core.Index, dev Device) error {
	snap := ix.Snapshot()
	dims := ix.Dims()
	es := entrySize(dims)
	dirLen := len(snap) * es
	stats := encodeStats(snap, ix.StatsWindow())

	// Lay out the regions after header + directory + statistics.
	offsets := make([]int64, len(snap))
	caps := make([]int, len(snap))
	next := int64(headerV2 + dirLen + len(stats))
	for i, cs := range snap {
		offsets[i] = next
		caps[i] = reserveSlots(len(cs.IDs))
		next += int64(regionSize(caps[i], dims))
	}

	dir := make([]byte, dirLen)
	for i, cs := range snap {
		region := make([]byte, regionSize(caps[i], dims))
		for k, id := range cs.IDs {
			binary.LittleEndian.PutUint32(region[k*4:], id)
		}
		coordBase := caps[i] * 4
		for k, v := range cs.Data {
			binary.LittleEndian.PutUint32(region[coordBase+k*4:], math.Float32bits(v))
		}
		if _, err := dev.WriteAt(region, offsets[i]); err != nil {
			return fmt.Errorf("store: write cluster %d: %w", i, err)
		}
		e := dir[i*es:]
		binary.LittleEndian.PutUint32(e[0:], uint32(int32(cs.Parent)))
		binary.LittleEndian.PutUint32(e[4:], uint32(len(cs.IDs)))
		binary.LittleEndian.PutUint32(e[8:], uint32(caps[i]))
		binary.LittleEndian.PutUint64(e[12:], uint64(offsets[i]))
		binary.LittleEndian.PutUint32(e[20:], crc32.ChecksumIEEE(region))
		sigBase := 24
		for d := 0; d < dims; d++ {
			binary.LittleEndian.PutUint32(e[sigBase+d*16:], math.Float32bits(cs.Signature.ALo[d]))
			binary.LittleEndian.PutUint32(e[sigBase+d*16+4:], math.Float32bits(cs.Signature.AHi[d]))
			binary.LittleEndian.PutUint32(e[sigBase+d*16+8:], math.Float32bits(cs.Signature.BLo[d]))
			binary.LittleEndian.PutUint32(e[sigBase+d*16+12:], math.Float32bits(cs.Signature.BHi[d]))
		}
	}
	if _, err := dev.WriteAt(dir, headerV2); err != nil {
		return fmt.Errorf("store: write directory: %w", err)
	}
	if _, err := dev.WriteAt(stats, int64(headerV2+dirLen)); err != nil {
		return fmt.Errorf("store: write statistics: %w", err)
	}

	head := make([]byte, headerV2)
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint32(head[4:], version2)
	binary.LittleEndian.PutUint32(head[8:], uint32(dims))
	binary.LittleEndian.PutUint32(head[12:], uint32(len(snap)))
	binary.LittleEndian.PutUint32(head[16:], uint32(dirLen))
	binary.LittleEndian.PutUint32(head[20:], crc32.ChecksumIEEE(dir))
	binary.LittleEndian.PutUint32(head[24:], uint32(len(stats)))
	binary.LittleEndian.PutUint32(head[28:], crc32.ChecksumIEEE(stats))
	binary.LittleEndian.PutUint32(head[32:], uint32(ix.Config().DivisionFactor))
	binary.LittleEndian.PutUint32(head[36:], crc32.ChecksumIEEE(head[:36]))
	if _, err := dev.WriteAt(head, 0); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	if err := dev.Truncate(next); err != nil {
		return fmt.Errorf("store: truncate: %w", err)
	}
	return dev.Sync()
}

// DirEntry describes one cluster's placement on the device.
type DirEntry struct {
	// Signature is the cluster's grouping signature.
	Signature sig.Signature
	// Parent is the index of the parent cluster (-1 for the root).
	Parent int
	// Count is the number of live members.
	Count int
	// Capacity is the number of slots in the region (count + reserve).
	Capacity int
	// Offset is the region's byte offset on the device.
	Offset int64
	// CRC is the region checksum.
	CRC uint32
}

// RegionBytes returns the byte size of the entry's on-device region.
func (e DirEntry) RegionBytes(dims int) int { return regionSize(e.Capacity, dims) }

// readHeader decodes and validates the device header of either format
// version.
func readHeader(dev Device) (header, error) {
	// The version field decides the header size; peek the fixed prefix
	// first.
	pre := make([]byte, 8)
	if _, err := dev.ReadAt(pre, 0); err != nil {
		return header{}, corrupt("short header: %v", err)
	}
	if binary.LittleEndian.Uint32(pre[0:]) != magic {
		return header{}, corrupt("bad magic")
	}
	h := header{version: int(binary.LittleEndian.Uint32(pre[4:]))}
	switch h.version {
	case version:
		h.size = headerSize
	case version2:
		h.size = headerV2
	default:
		return header{}, corrupt("unsupported version %d", h.version)
	}
	head := make([]byte, h.size)
	if _, err := dev.ReadAt(head, 0); err != nil {
		return header{}, corrupt("short header: %v", err)
	}
	if crc32.ChecksumIEEE(head[:h.size-4]) != binary.LittleEndian.Uint32(head[h.size-4:]) {
		return header{}, corrupt("header checksum mismatch")
	}
	h.dims = int(binary.LittleEndian.Uint32(head[8:]))
	h.nClusters = int(binary.LittleEndian.Uint32(head[12:]))
	h.dirLen = int(binary.LittleEndian.Uint32(head[16:]))
	h.dirCRC = binary.LittleEndian.Uint32(head[20:])
	if h.version >= version2 {
		h.statsLen = int(binary.LittleEndian.Uint32(head[24:]))
		h.statsCRC = binary.LittleEndian.Uint32(head[28:])
		h.divisionFactor = int(binary.LittleEndian.Uint32(head[32:]))
	}
	if h.dims < 1 || h.nClusters < 1 {
		return header{}, corrupt("implausible geometry: dims=%d clusters=%d", h.dims, h.nClusters)
	}
	if h.dirLen != h.nClusters*entrySize(h.dims) {
		return header{}, corrupt("directory length %d does not match %d clusters", h.dirLen, h.nClusters)
	}
	return h, nil
}

// ReadDirectory validates the header and directory checksums and returns the
// cluster directory and dimensionality. It reads only the header and
// directory blocks, not the cluster regions — this is the in-memory state a
// disk-based deployment keeps (§5.ii: "signatures ... managed in memory,
// while the cluster members are stored on external support").
func ReadDirectory(dev Device) ([]DirEntry, int, error) {
	h, err := readHeader(dev)
	if err != nil {
		return nil, 0, err
	}
	entries, err := readDirEntries(dev, h)
	return entries, h.dims, err
}

// readDirEntries reads and validates the directory described by an already
// decoded header.
func readDirEntries(dev Device, h header) ([]DirEntry, error) {
	dims, nClusters := h.dims, h.nClusters
	dir := make([]byte, h.dirLen)
	if _, err := dev.ReadAt(dir, int64(h.size)); err != nil {
		return nil, corrupt("short directory: %v", err)
	}
	if crc32.ChecksumIEEE(dir) != h.dirCRC {
		return nil, corrupt("directory checksum mismatch")
	}
	es := entrySize(dims)
	entries := make([]DirEntry, nClusters)
	for i := 0; i < nClusters; i++ {
		e := dir[i*es:]
		entry := DirEntry{
			Parent:   int(int32(binary.LittleEndian.Uint32(e[0:]))),
			Count:    int(binary.LittleEndian.Uint32(e[4:])),
			Capacity: int(binary.LittleEndian.Uint32(e[8:])),
			Offset:   int64(binary.LittleEndian.Uint64(e[12:])),
			CRC:      binary.LittleEndian.Uint32(e[20:]),
		}
		if entry.Count > entry.Capacity || entry.Capacity > 1<<30 {
			return nil, corrupt("cluster %d: count %d exceeds capacity %d", i, entry.Count, entry.Capacity)
		}
		s := sig.Root(dims)
		sigBase := 24
		for d := 0; d < dims; d++ {
			s.ALo[d] = math.Float32frombits(binary.LittleEndian.Uint32(e[sigBase+d*16:]))
			s.AHi[d] = math.Float32frombits(binary.LittleEndian.Uint32(e[sigBase+d*16+4:]))
			s.BLo[d] = math.Float32frombits(binary.LittleEndian.Uint32(e[sigBase+d*16+8:]))
			s.BHi[d] = math.Float32frombits(binary.LittleEndian.Uint32(e[sigBase+d*16+12:]))
		}
		entry.Signature = s
		entries[i] = entry
	}
	return entries, nil
}

// regionBufs pools the raw device images ReadRegionInto stages regions
// through, so repeated region reads allocate nothing once the pool holds a
// large-enough buffer.
var regionBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadRegion reads and verifies one cluster region, returning the member ids
// and flat coordinates in fresh slices. It is a thin wrapper over
// ReadRegionInto for callers without buffers to reuse.
func ReadRegion(dev Device, e DirEntry, dims int) ([]uint32, []float32, error) {
	return ReadRegionInto(dev, e, dims, nil, nil)
}

// ReadRegionInto reads and verifies one cluster region, appending the member
// ids and flat (row-major) coordinates to the caller's buffers and returning
// the extended slices. Reusing the returned slices across calls makes
// repeated region reads allocation-free at steady state; the raw device
// image is staged through an internal pool.
func ReadRegionInto(dev Device, e DirEntry, dims int, ids []uint32, data []float32) ([]uint32, []float32, error) {
	bufp := regionBufs.Get().(*[]byte)
	defer regionBufs.Put(bufp)
	size := regionSize(e.Capacity, dims)
	if cap(*bufp) < size {
		*bufp = make([]byte, size)
	}
	region := (*bufp)[:size]
	if _, err := dev.ReadAt(region, e.Offset); err != nil {
		return ids, data, corrupt("short region at %d: %v", e.Offset, err)
	}
	if crc32.ChecksumIEEE(region) != e.CRC {
		return ids, data, corrupt("region checksum mismatch at %d", e.Offset)
	}
	// Presize once: nil-buffer callers (ReadRegion, Load) get the single
	// exact-size allocation per slice they always had, not append growth.
	ids = slices.Grow(ids, e.Count)
	data = slices.Grow(data, e.Count*2*dims)
	for k := 0; k < e.Count; k++ {
		ids = append(ids, binary.LittleEndian.Uint32(region[k*4:]))
	}
	coordBase := e.Capacity * 4
	for k := 0; k < e.Count*2*dims; k++ {
		data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(region[coordBase+k*4:])))
	}
	return ids, data, nil
}

// DecodeRegionColumns validates a region image (the exact on-device bytes of
// e's region, e.g. one slice of a coalesced read) and decodes the live
// members into caller-provided structure-of-arrays storage: ids[k] for
// k < e.Count, and 2·dims columns in cols, column j being
// cols[j·e.Count:(j+1)·e.Count] with Min[d] in column 2d and Max[d] in
// column 2d+1 — the slab layout of internal/blockcache.Region. The size and
// checksum checks run before anything is written and fail with ErrCorrupt.
// The transpose from the device's row-major records is geom.ColumnsFromFlat
// (its AVX2 body where the CPU has one), once per device read, so every
// verification over the decoded region runs on contiguous columns.
func DecodeRegionColumns(region []byte, e DirEntry, dims int, ids []uint32, cols []float32) error {
	if len(region) != regionSize(e.Capacity, dims) {
		return corrupt("region image at %d has %d bytes, want %d", e.Offset, len(region), regionSize(e.Capacity, dims))
	}
	if crc32.ChecksumIEEE(region) != e.CRC {
		return corrupt("region checksum mismatch at %d", e.Offset)
	}
	for k := 0; k < e.Count; k++ {
		ids[k] = binary.LittleEndian.Uint32(region[k*4:])
	}
	geom.ColumnsFromFlat(cols, region[e.Capacity*4:], e.Count, dims)
	return nil
}

// Load validates the device content and rebuilds the index. cfg supplies the
// runtime parameters (scenario, division factor, …); its Dims must match the
// stored dimensionality or be zero to adopt it. Version-2 segments restore
// the adaptive query statistics when the stored division factor matches the
// effective configuration (the candidate enumeration they index into is a
// function of that factor); otherwise — and for version-1 segments — the
// index restores cold and re-gathers statistics, as the paper permits.
func Load(dev Device, cfg core.Config) (*core.Index, error) {
	h, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	entries, err := readDirEntries(dev, h)
	if err != nil {
		return nil, err
	}
	dims := h.dims
	if cfg.Dims == 0 {
		cfg.Dims = dims
	}
	if cfg.Dims != dims {
		return nil, fmt.Errorf("store: database has %d dims, config wants %d", dims, cfg.Dims)
	}
	snap := make([]core.ClusterSnapshot, len(entries))
	for i, e := range entries {
		ids, data, err := ReadRegion(dev, e, dims)
		if err != nil {
			return nil, err
		}
		snap[i] = core.ClusterSnapshot{Signature: e.Signature, Parent: e.Parent, IDs: ids, Data: data}
	}
	window := 0.0
	if h.version >= version2 {
		stats := make([]byte, h.statsLen)
		if _, err := dev.ReadAt(stats, int64(h.size+h.dirLen)); err != nil {
			return nil, corrupt("short statistics block: %v", err)
		}
		if crc32.ChecksumIEEE(stats) != h.statsCRC {
			return nil, corrupt("statistics checksum mismatch")
		}
		eff, err := cfg.Normalized()
		if err != nil {
			return nil, err
		}
		if h.divisionFactor == eff.DivisionFactor {
			if window, err = decodeStats(stats, snap); err != nil {
				return nil, err
			}
		}
	}
	ix, err := core.Restore(cfg, snap)
	if err != nil {
		return nil, corrupt("restore: %v", err)
	}
	if err := ix.SetStatsWindow(window); err != nil {
		return nil, corrupt("restore: %v", err)
	}
	return ix, nil
}
