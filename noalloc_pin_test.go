package accluster

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"accluster/internal/analysis"
	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/sig"
	"accluster/internal/telemetry"
)

// noallocEntry drives one //ac:noalloc-annotated exported path. Key is the
// annotation-table key (pkgpath.Name or pkgpath.Recv.Name) the entry
// covers; run executes one warm call of that path.
type noallocEntry struct {
	key string
	run func()
}

// exportedNoallocKey reports whether every identifier segment of the key —
// the receiver (if any) and the function name — is exported; unexported
// paths are exercised transitively through these.
func exportedNoallocKey(key string) bool {
	rest := key
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	segs := strings.Split(rest, ".")
	if len(segs) < 2 {
		return false
	}
	for _, s := range segs[1:] {
		r, _ := utf8.DecodeRuneInString(s)
		if !unicode.IsUpper(r) {
			return false
		}
	}
	return true
}

// TestNoAllocAnnotatedPaths is the runtime half of the noalloc analyzer:
// every exported path annotated //ac:noalloc is driven warm under
// testing.AllocsPerRun and must allocate nothing. The table is cross-checked
// against the module's annotation scan, so adding //ac:noalloc to an
// exported function without extending the table (or renaming an annotated
// function the table names) fails the test.
func TestNoAllocAnnotatedPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}

	// geom kernel fixtures: one 256-object column pair.
	const kn = 256
	rng := rand.New(rand.NewSource(11))
	lo := make([]float32, kn)
	hi := make([]float32, kn)
	for i := range lo {
		size := rng.Float32() * 0.3
		lo[i] = rng.Float32() * (1 - size)
		hi[i] = lo[i] + size
	}
	bits := make([]uint64, geom.BitmapWords(kn))
	kids := make([]uint32, kn)
	for i := range kids {
		kids[i] = uint32(i)
	}
	surv := make([]uint32, 0, kn)
	q4 := MustRect([]float32{0.2, 0.2, 0.2, 0.2}, []float32{0.6, 0.6, 0.6, 0.6})
	order := make([]int, 4)
	widths := make([]float32, 4)
	flat := make([]byte, 8*4*kn) // kn rows of a 4-d region image
	cols := make([]float32, 2*4*kn)

	// sig fixtures: a flat mirror of 16 root signatures.
	rootSig := sig.Root(4)
	var sb []float32
	for i := 0; i < 16; i++ {
		sb = sig.AppendBounds(sb, rootSig)
	}
	matched := make([]int32, 0, 16)
	selBuf := make([]uint8, 0, 64)

	// core fixtures: a small in-memory index queried directly through the
	// read-phase entry points, draining the stats mailbox after each query
	// the way the lock-owning wrappers do.
	ix, err := core.New(core.Config{Dims: 2, ReorgEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 500; id++ {
		size := rng.Float32() * 0.2
		x := rng.Float32() * (1 - size)
		y := rng.Float32() * (1 - size)
		r := geom.Rect{Min: []float32{x, y}, Max: []float32{x + size, y + size}}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	var ixMu sync.RWMutex
	q2 := MustRect([]float32{0.1, 0.1}, []float32{0.5, 0.5})
	cdst := make([]uint32, 0, 1024)

	// telemetry fixture.
	hist := telemetry.NewHistogram("pin")
	t0 := time.Now()

	// Adaptive fixture: the paper's memory scenario.
	a, err := NewAdaptive(4, WithReorgEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for id := uint32(0); id < 2000; id++ {
		r := NewRect(4)
		for d := 0; d < 4; d++ {
			size := rng.Float32() * 0.3
			r.Min[d] = rng.Float32() * (1 - size)
			r.Max[d] = r.Min[d] + size
		}
		if err := a.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	adst := make([]uint32, 0, 4096)

	// Baseline fixture: the R*-tree over the same kind of objects, queried
	// through the methods the two baselines share.
	rs, err := NewRStar(4)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(0); id < 2000; id++ {
		r := NewRect(4)
		for d := 0; d < 4; d++ {
			size := rng.Float32() * 0.3
			r.Min[d] = rng.Float32() * (1 - size)
			r.Max[d] = r.Min[d] + size
		}
		if err := rs.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	bdst := make([]uint32, 0, 4096)

	// Disk fixture: a checkpoint queried through the disk scenario with the
	// region cache holding the whole working set (the pinned path is the
	// warm hit pass).
	src, path := buildDiskCheckpoint(t, 4, 3000)
	defer src.Close()
	d, err := OpenDisk(path, WithDiskCache(64<<20), WithReadahead(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ddst := make([]uint32, 0, 4096)

	// Batch fixtures: reused query batches and result carriers (the batch
	// plane's contract is zero steady-state allocations with reused buffers).
	qs4 := make([]Rect, 8)
	for i := range qs4 {
		r := NewRect(4)
		for dd := 0; dd < 4; dd++ {
			size := rng.Float32() * 0.3
			r.Min[dd] = rng.Float32() * (1 - size)
			r.Max[dd] = r.Min[dd] + size
		}
		qs4[i] = r
	}
	qs2 := make([]geom.Rect, 6)
	for i := range qs2 {
		r := geom.NewRect(2)
		for dd := 0; dd < 2; dd++ {
			size := rng.Float32() * 0.3
			r.Min[dd] = rng.Float32() * (1 - size)
			r.Max[dd] = r.Min[dd] + size
		}
		qs2[i] = r
	}
	var idb, cb, dcb geom.IDBatch
	idb.Reset(8)
	abr, dbr, bbr := new(BatchResult), new(BatchResult), new(BatchResult)
	var lb geom.IDBatch
	var bq sig.BatchQueries
	var bm sig.BatchMatch
	qbits := make([]uint64, geom.BitmapWords(len(qs4)))

	// Shared read-phase fixtures: a scan over the 16-signature mirror, with
	// the 256-object column pair as every dimension of one cluster.
	var scan sig.Scan
	var scanSink sig.Sink
	var scanMeter cost.Meter
	var scanIDB geom.IDBatch
	scanLo := [][]float32{lo, lo, lo, lo}
	scanHi := [][]float32{hi, hi, hi, hi}

	emit := func(id uint32) bool { return true }
	var runErr error
	entries := []noallocEntry{
		{"accluster/internal/geom.InitBitmap", func() { geom.InitBitmap(bits, kn) }},
		{"accluster/internal/geom.FilterIntersects", func() { geom.FilterIntersects(lo, hi, 0.2, 0.6, bits) }},
		{"accluster/internal/geom.FilterContainedBy", func() { geom.FilterContainedBy(lo, hi, 0.2, 0.6, bits) }},
		{"accluster/internal/geom.FilterEncloses", func() { geom.FilterEncloses(lo, hi, 0.4, 0.5, bits) }},
		{"accluster/internal/geom.FilterDim", func() { geom.FilterDim(Intersects, lo, hi, 0.2, 0.6, bits) }},
		{"accluster/internal/geom.QueryDimOrder", func() { geom.QueryDimOrder(order, widths, q4, Intersects) }},
		{"accluster/internal/geom.AppendSurvivors", func() { surv = geom.AppendSurvivors(surv[:0], kids, bits) }},
		{"accluster/internal/geom.ColumnsFromFlat", func() { geom.ColumnsFromFlat(cols, flat, kn, 4) }},
		{"accluster/internal/sig.MatchBounds", func() { matched = sig.MatchBounds(sb, 16, 4, q4, Intersects, matched[:0]) }},
		{"accluster/internal/sig.BoundsImplyDim", func() { sig.BoundsImplyDim(Intersects, sb, 1, 0.2, 0.6) }},
		{"accluster/internal/sig.BatchQueries.Reset", func() { bq.Reset(qs4, 4) }},
		{"accluster/internal/sig.BatchMatch.Reset", func() { bm.Reset() }},
		{"accluster/internal/sig.MatchBoundsBatch", func() { sig.MatchBoundsBatch(sb, 16, 4, &bq, Intersects, nil, qbits, &bm) }},
		{"accluster/internal/sig.Scan.Prepare", func() { scan.Prepare(sb, 16, 4, nil, qs4, Intersects) }},
		{"accluster/internal/sig.Scan.Explore", func() { scan.Explore(0, sb[:16], kids, scanLo, scanHi, nil, &scanSink, &scanMeter) }},
		{"accluster/internal/sig.Scan.Accumulate", func() { _ = scan.Accumulate(len(qs4)) }},
		{"accluster/internal/sig.Scan.Collect", func() {
			scanIDB.Reset(len(qs4))
			scan.Collect(&scanIDB)
		}},
		{"accluster/internal/geom.IDBatch.Reset", func() { idb.Reset(8) }},
		{"accluster/internal/geom.IDBatch.Queries", func() { _ = idb.Queries() }},
		{"accluster/internal/geom.IDBatch.Query", func() { _ = idb.Query(0) }},
		{"accluster/internal/sig.AppendBounds", func() { sb = sig.AppendBounds(sb[:0], rootSig) }},
		{"accluster/internal/sig.AppendSelectors", func() { selBuf = sig.AppendSelectors(selBuf[:0], sb[:16], 4) }},
		{"accluster/internal/core.Index.SearchRead", func() {
			runErr = ix.SearchRead(q2, Intersects, emit)
			ix.TryDrainStats(&ixMu)
		}},
		{"accluster/internal/core.Index.SearchIDsAppendRead", func() {
			cdst, runErr = ix.SearchIDsAppendRead(cdst[:0], q2, Intersects)
			ix.TryDrainStats(&ixMu)
		}},
		{"accluster/internal/core.Index.CountRead", func() {
			_, runErr = ix.CountRead(q2, Intersects)
			ix.TryDrainStats(&ixMu)
		}},
		{"accluster/internal/core.Index.SearchBatchRead", func() {
			runErr = ix.SearchBatchRead(&cb, qs2, Intersects)
			ix.TryDrainStats(&ixMu)
		}},
		{"accluster/internal/telemetry.Histogram.Record", func() { hist.Record(12345) }},
		{"accluster/internal/telemetry.Histogram.RecordSince", func() { hist.RecordSince(t0) }},
		{"accluster.Adaptive.Search", func() { runErr = a.Search(q4, Intersects, emit) }},
		{"accluster.Adaptive.SearchIDsAppend", func() { adst, runErr = a.SearchIDsAppend(adst[:0], q4, Intersects) }},
		{"accluster.Adaptive.Count", func() { _, runErr = a.Count(q4, Intersects) }},
		{"accluster.Adaptive.SearchIDsBatch", func() { _, runErr = a.SearchIDsBatch(abr, qs4, Intersects) }},
		{"accluster/internal/shard.Locked.Search", func() { runErr = a.l.Search(q4, Intersects, emit) }},
		{"accluster/internal/shard.Locked.SearchIDsAppend", func() { adst, runErr = a.l.SearchIDsAppend(adst[:0], q4, Intersects) }},
		{"accluster/internal/shard.Locked.Count", func() { _, runErr = a.l.Count(q4, Intersects) }},
		{"accluster/internal/shard.Locked.SearchIDsBatch", func() { runErr = a.l.SearchIDsBatch(&lb, qs4, Intersects) }},
		{"accluster.baseline.Search", func() { runErr = rs.Search(q4, Intersects, emit) }},
		{"accluster.baseline.SearchIDsAppend", func() { bdst, runErr = rs.SearchIDsAppend(bdst[:0], q4, Intersects) }},
		{"accluster.baseline.Count", func() { _, runErr = rs.Count(q4, Intersects) }},
		{"accluster.baseline.SearchIDsBatch", func() { _, runErr = rs.SearchIDsBatch(bbr, qs4, Intersects) }},
		{"accluster.Disk.Search", func() { runErr = d.Search(q4, Intersects, emit) }},
		{"accluster.Disk.SearchIDsAppend", func() { ddst, runErr = d.SearchIDsAppend(ddst[:0], q4, Intersects) }},
		{"accluster.Disk.Count", func() { _, runErr = d.Count(q4, Intersects) }},
		{"accluster.Disk.SearchIDsBatch", func() { _, runErr = d.SearchIDsBatch(dbr, qs4, Intersects) }},
		{"accluster/internal/diskengine.Engine.Search", func() { runErr = d.eng.Search(q4, Intersects, emit) }},
		{"accluster/internal/diskengine.Engine.SearchIDsAppend", func() { ddst, runErr = d.eng.SearchIDsAppend(ddst[:0], q4, Intersects) }},
		{"accluster/internal/diskengine.Engine.Count", func() { _, runErr = d.eng.Count(q4, Intersects) }},
		{"accluster/internal/diskengine.Engine.SearchIDsBatch", func() { runErr = d.eng.SearchIDsBatch(&dcb, qs4, Intersects) }},
	}

	// Drift check: the table and the module's annotation scan must agree on
	// the exported //ac:noalloc surface.
	annot, err := analysis.ScanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	annotated := annot.Keys("noalloc")
	covered := make(map[string]bool, len(entries))
	for _, e := range entries {
		if covered[e.key] {
			t.Errorf("duplicate table entry %s", e.key)
		}
		covered[e.key] = true
	}
	isAnnotated := make(map[string]bool, len(annotated))
	for _, key := range annotated {
		isAnnotated[key] = true
		if exportedNoallocKey(key) && !covered[key] {
			t.Errorf("exported //ac:noalloc path %s has no AllocsPerRun table entry", key)
		}
	}
	for _, e := range entries {
		if !isAnnotated[e.key] {
			t.Errorf("table entry %s does not name an //ac:noalloc-annotated declaration (renamed or de-annotated?)", e.key)
		}
	}

	for _, e := range entries {
		for i := 0; i < 50; i++ { // warm pools, caches and append buffers
			e.run()
		}
		if runErr != nil {
			t.Fatalf("%s: %v", e.key, runErr)
		}
		if allocs := testing.AllocsPerRun(100, e.run); allocs != 0 {
			t.Errorf("%s allocates %.1f/op warm, want 0", e.key, allocs)
		}
		if runErr != nil {
			t.Fatalf("%s: %v", e.key, runErr)
		}
	}
}
