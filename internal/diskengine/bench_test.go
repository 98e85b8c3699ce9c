package diskengine

import (
	"math/rand"
	"testing"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/store"
	"accluster/internal/vdisk"
)

// benchCheckpoint builds one shared multi-cluster checkpoint for the disk
// search benchmarks.
func benchCheckpoint(b *testing.B, dims, n int) (*vdisk.Disk, []geom.Rect) {
	b.Helper()
	ix, err := core.New(core.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: 40})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for id := 0; id < n; id++ {
		if err := ix.Insert(uint32(id), benchRect(rng, dims, 0.3)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, err := coreIDs(ix, benchRect(rng, dims, 0.1), geom.Intersects); err != nil {
			b.Fatal(err)
		}
	}
	disk := vdisk.New(cost.DiskAccessMS, cost.TransferMSPerByte)
	if err := store.Save(ix, disk); err != nil {
		b.Fatal(err)
	}
	queries := make([]geom.Rect, 32)
	for i := range queries {
		queries[i] = benchRect(rng, dims, 0.25)
	}
	return disk, queries
}

func benchRect(rng *rand.Rand, dims int, maxSize float32) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

// reportVdisk reports the virtual device's seeks and simulated I/O time per
// op since its last ResetClock: the access pattern the wall time cannot
// show, seek coalescing included.
func reportVdisk(b *testing.B, disk *vdisk.Disk) {
	st := disk.Stats()
	b.ReportMetric(float64(st.Seeks)/float64(b.N), "seeks/op")
	b.ReportMetric(st.ElapsedMS/float64(b.N), "vdisk_ms/op")
}

// BenchmarkDiskSearch measures the disk query path cold (cache disabled —
// every op reads, decodes and verifies its regions, with and without
// seek-coalescing) and warm (cache budgets from eviction-churn small to
// everything-resident) on a repeated-query workload, one query per op. The
// warm-cache64MiB/batch row runs the 32 queries as one SearchIDsBatch per op
// and reports ns/query next to the looped rows. CI runs it through
// benchstat; the warm variants report 0 allocs/op at steady state.
func BenchmarkDiskSearch(b *testing.B) {
	disk, queries := benchCheckpoint(b, 8, 20000)
	variants := []struct {
		name  string
		cfg   Config
		batch bool
	}{
		{"cold-nocache", Config{CacheBytes: -1}, false},
		{"cold-nocache-noreadahead", Config{CacheBytes: -1, ReadaheadGap: -1}, false},
		{"warm-cache1MiB", Config{CacheBytes: 1 << 20}, false},
		{"warm-cache64MiB", Config{}, false},
		{"warm-cache64MiB/batch", Config{}, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng, err := OpenConfig(disk, v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var buf []uint32
			var dst geom.IDBatch
			for _, q := range queries { // converge cache + scratch pool
				if buf, err = eng.SearchIDsAppend(buf[:0], q, geom.Intersects); err != nil {
					b.Fatal(err)
				}
			}
			if v.batch {
				if err := eng.SearchIDsBatch(&dst, queries, geom.Intersects); err != nil {
					b.Fatal(err)
				}
			}
			eng.ResetMeter()
			disk.ResetClock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v.batch {
					err = eng.SearchIDsBatch(&dst, queries, geom.Intersects)
				} else {
					buf, err = eng.SearchIDsAppend(buf[:0], queries[i%len(queries)], geom.Intersects)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVdisk(b, disk)
			// Hits over region probes: Explorations counts (cluster,
			// query) pairs, and a batch probes each region once for all
			// of its queries.
			if m := eng.Meter(); m.CacheHits+m.CacheMisses > 0 {
				b.ReportMetric(float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses), "hit-ratio")
			}
			if v.batch {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
			}
		})
	}
}

// BenchmarkSeedScalarDiskSearch is the pre-overhaul executor on the same
// checkpoint and workload — the benchstat before-reference for the columnar
// engine (virtual signature matcher, allocating per-cluster region reads,
// scalar verification, one seek per explored cluster).
func BenchmarkSeedScalarDiskSearch(b *testing.B) {
	disk, queries := benchCheckpoint(b, 8, 20000)
	dir, dims, err := store.ReadDirectory(disk)
	if err != nil {
		b.Fatal(err)
	}
	disk.ResetClock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		n := 0
		for _, entry := range dir {
			if !entry.Signature.MatchesQuery(q, geom.Intersects) {
				continue
			}
			ids, data, err := store.ReadRegion(disk, entry, dims)
			if err != nil {
				b.Fatal(err)
			}
			for k := range ids {
				if ok, _ := geom.FlatMatches(data, k, q, geom.Intersects); ok {
					n++
				}
			}
		}
		_ = n
	}
	b.StopTimer()
	reportVdisk(b, disk)
}
