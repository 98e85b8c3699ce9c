package main

import (
	"path/filepath"

	"accluster"
	"accluster/internal/cost"
	"accluster/internal/diskengine"
	"accluster/internal/geom"
	"accluster/internal/store"
	"accluster/internal/workload"
)

// disk-range: the paper's disk scenario. A clustering converged under the
// disk cost model is checkpointed with SaveFile and served by OpenDisk with a
// region cache smaller than the checkpoint's regions; intersection queries
// aimed at a hot sub-box run one at a time. It is the only workload through
// internal/diskengine, internal/blockcache and internal/store: the hottest
// regions stay cached, the rest of the hot set does not, so most queries
// read, decode and evict. Reads come from the OS page cache, so device times
// are the machine's, not a disk's.
const (
	diskObjects     = 100_000
	diskDims        = 16
	diskWarmQueries = 2_000
	diskCacheWarm   = 200
	diskCacheBytes  = 5 << 20
	diskHotLo       = 0.2
	diskHotHi       = 0.5
)

type diskRange struct {
	*rangeInputs
	path      string
	cacheWarm []geom.Rect

	d   *accluster.Disk
	qg  *workload.QueryGen
	q   geom.Rect
	buf []uint32

	// traced engine: the diskengine OpenDisk wraps, over a device that
	// times every read
	eng *diskengine.Engine
	dev *timedDevice
	m0  cost.Meter
	c0  int64 // evictions when the traced op stream starts
}

func newDiskRange(seed int64, dir string) (*diskRange, error) {
	hot := geom.NewRect(diskDims)
	for d := range hot.Min {
		hot.Min[d], hot.Max[d] = diskHotLo, diskHotHi
	}
	in, err := newRangeInputs(seed, diskDims, diskObjects, diskWarmQueries, &hot)
	if err != nil {
		return nil, err
	}
	w := &diskRange{rangeInputs: in, path: filepath.Join(dir, "disk-range.acdb"), q: geom.NewRect(diskDims), buf: make([]uint32, 0, diskObjects)}
	cg, err := in.queryGen(subSeed(dataSeed, 4))
	if err != nil {
		return nil, err
	}
	for i := 0; i < diskCacheWarm; i++ {
		w.cacheWarm = append(w.cacheWarm, cg.Rect())
	}
	return w, nil
}

func (w *diskRange) objects() int { return len(w.objs) }

func (w *diskRange) setup(st *setupTimer) error {
	a, err := accluster.NewAdaptive(w.dims, accluster.WithScenario(accluster.DiskScenario()))
	if err != nil {
		return err
	}
	defer a.Close()
	if err := a.InsertBatch(w.ids, w.objs); err != nil {
		return err
	}
	buf := w.buf
	for _, q := range w.warm {
		if buf, err = a.SearchIDsAppend(buf[:0], q, accluster.Intersects); err != nil {
			return err
		}
	}
	if err := st.timeSave(func() error { return a.SaveFile(w.path) }); err != nil {
		return err
	}
	if w.d, err = accluster.OpenDisk(w.path, accluster.WithDiskCache(diskCacheBytes)); err != nil {
		return err
	}
	return w.settle()
}

// settle runs the fixed cache warm-up queries, so which regions are
// resident, and so the cache's footprint, depends little on the queries
// that ran before. A decoded region's heap footprint exceeds its budget
// charge, and the footprint left by a measured phase swung by a fifth
// between query streams.
func (w *diskRange) settle() error {
	buf := w.buf
	for _, q := range w.cacheWarm {
		var err error
		if buf, err = w.d.SearchIDsAppend(buf[:0], q, accluster.Intersects); err != nil {
			return err
		}
	}
	return nil
}

func (w *diskRange) begin() { w.qg = w.stream() }

func (w *diskRange) op(_ int, r *recorder) int {
	w.qg.Fill(w.q)
	c0, w0 := threadCPU(), wallNow()
	ids, err := w.d.SearchIDsAppend(w.buf[:0], w.q, accluster.Intersects)
	r.read(c0, w0)
	if err != nil {
		r.fail(err)
	}
	w.buf = ids
	r.digests = append(r.digests, digestOf(ids))
	return 1
}

func (w *diskRange) meters() []meter {
	s, c := w.d.Stats(), w.d.CacheStats()
	return diskMeters(w.d.Clusters(), s.Queries, s.PartitionsChecked, s.PartitionsExplored, s.ObjectsVerified,
		s.Results, s.Seeks, s.BytesTransferred, c.Hits, c.Misses, c.Evictions)
}

func diskMeters(clusters int, queries, checks, explored, verified, results, seeks, transferred, hits, misses, evictions int64) []meter {
	return []meter{
		{"clusters", int64(clusters)},
		{"queries", queries},
		{"sig_checks", checks},
		{"explored", explored},
		{"objects_verified", verified},
		{"results", results},
		{"seeks", seeks},
		{"bytes_transferred", transferred},
		{"cache_hits", hits},
		{"cache_misses", misses},
		{"cache_evictions", evictions},
	}
}

func (w *diskRange) close() error {
	var err error
	if w.d != nil {
		err = w.d.Close()
		w.d = nil
	}
	if w.dev != nil {
		if cerr := w.dev.Device.(*store.FileDevice).Close(); err == nil {
			err = cerr
		}
		w.dev, w.eng = nil, nil
	}
	return err
}

func (w *diskRange) setupTraced() error {
	// OpenDisk is OpenFileDevice plus diskengine.OpenConfig with the cache
	// budget; Disk.SearchIDsAppend calls the engine's directly. The
	// checkpoint is the one the untraced set-up wrote from the same inputs.
	fd, err := store.OpenFileDevice(w.path)
	if err != nil {
		return err
	}
	w.dev = &timedDevice{Device: fd}
	if w.eng, err = diskengine.OpenConfig(w.dev, diskengine.Config{CacheBytes: diskCacheBytes}); err != nil {
		return err
	}
	buf := w.buf
	for _, q := range w.cacheWarm {
		if buf, err = w.eng.SearchIDsAppend(buf[:0], q, geom.Intersects); err != nil {
			return err
		}
	}
	w.begin()
	w.m0, w.c0 = w.eng.Meter(), w.eng.CacheStats().Evictions
	return nil
}

func (w *diskRange) opTraced(i int, t *tracer, dst []digest) []digest {
	w.qg.Fill(w.q)
	op := int32(i)
	root := t.begin(rootSpan, op, -1)
	s := t.begin("diskengine.search", op, root)
	w.dev.attach(t, op, s)
	ids, err := w.eng.SearchIDsAppend(w.buf[:0], w.q, geom.Intersects)
	w.dev.attach(nil, 0, 0)
	t.end(s)
	t.end(root)
	w.buf = ids
	d := digestOf(ids)
	if err != nil {
		d = badDigest
	}
	return append(dst, d)
}

func (w *diskRange) tracedMeters() []meter {
	m, c := w.eng.Meter(), w.eng.CacheStats()
	return diskMeters(w.eng.Clusters(), m.Queries, m.SigChecks, m.Explorations, m.ObjectsVerified,
		m.Results, m.Seeks, m.BytesTransferred, c.Hits, c.Misses, c.Evictions)
}

func (w *diskRange) tracedCheck() error { return nil }

func (w *diskRange) layers(_ *phase, spans map[string]*layerTime, ops int) []metric {
	m := w.eng.Meter()
	q := float64(m.Queries - w.m0.Queries)
	hits, misses := float64(m.CacheHits-w.m0.CacheHits), float64(m.CacheMisses-w.m0.CacheMisses)
	var reads, readCPU, readWall float64
	if lt := spans["store.read"]; lt != nil {
		reads, readCPU, readWall = float64(lt.Calls), float64(lt.Total), float64(lt.WallTotal)
	}
	n := float64(ops)
	return []metric{
		{"diskengine.search.self_cpu_us", selfPerOp(spans, "diskengine.search", ops), "us"},
		{"diskengine.seeks_per_query", ratio(float64(m.Seeks-w.m0.Seeks), q), "count"},
		{"diskengine.bytes_transferred_per_query", ratio(float64(m.BytesTransferred-w.m0.BytesTransferred), q), "B"},
		{"blockcache.hit_rate", ratio(hits, hits+misses), "ratio"},
		{"blockcache.evictions_per_query", ratio(float64(w.eng.CacheStats().Evictions-w.c0), q), "count"},
		{"store.read.cpu_us", readCPU / n / 1e3, "us"},
		{"store.read.wall_us", readWall / n / 1e3, "us"},
		{"store.reads_per_query", reads / n, "count"},
		{"store.read_bytes_per_query", float64(w.dev.tracedBytes) / n, "B"},
	}
}

// timedDevice wraps the checkpoint's store.Device and, while attached to a
// tracer, records a store.read span around every ReadAt.
type timedDevice struct {
	store.Device
	t           *tracer
	op, parent  int32
	tracedBytes int64
}

// attach directs the spans of subsequent reads to parent of operation op;
// a nil tracer stops recording.
func (d *timedDevice) attach(t *tracer, op, parent int32) {
	d.t, d.op, d.parent = t, op, parent
}

func (d *timedDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.t == nil {
		return d.Device.ReadAt(p, off)
	}
	s := d.t.begin("store.read", d.op, d.parent)
	n, err := d.Device.ReadAt(p, off)
	d.t.end(s)
	d.tracedBytes += int64(n)
	return n, err
}
