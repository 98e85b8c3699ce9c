package accluster

// One benchmark per table/figure of the paper's evaluation (see the
// experiment index on harness.Experiments). The benches measure per-query
// wall time on pre-built, pre-converged indexes at a laptop-friendly scale
// (the paper's full 2,000,000-object sweeps are regenerated by
// cmd/acbench); modeled times under the paper's cost constants are printed
// by the harness, here we report objs/query (objects verified) as the
// scale-free comparison metric.
//
// E9 (paper Table 2, the cost constants) has no benchmark: the constants are
// pinned by unit tests in internal/cost.
//
// Fig7Memory, Fig8Dims and PointEnclosing run four methods: SS (the
// row-major sequential scan), RS (the R*-tree), scan (the adaptive index
// with reorganization off: one cluster verified by the same column kernels)
// and AC. AC's time over scan's measures the clustering alone; its time
// over SS's also counts the kernels.
//
// Benchmark index (paper artifact -> bench):
//
//	Fig 7A + Table 1 (memory, selectivity sweep)  -> BenchmarkFig7Memory
//	Fig 7B + Table 2 (disk-tuned clustering)      -> BenchmarkFig7Disk
//	Fig 8 A/B + tables (dims sweep, skewed)       -> BenchmarkFig8Dims
//	§7.2 point-enclosing                          -> BenchmarkPointEnclosing
//	E10 grouping-criterion ablation               -> BenchmarkAblationGrouping
//	E11 division-factor ablation                  -> BenchmarkAblationDivision
//	E12 reorganization cost                       -> BenchmarkReorganize
//	(supporting) insert paths                     -> BenchmarkInsert
//	(supporting) §6 checkpoint/recovery           -> BenchmarkStoreSaveLoad

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/mbbclust"
	"accluster/internal/store"
	"accluster/internal/workload"
)

const (
	benchObjects = 10000
	benchDims    = 16
)

// benchEngine is the minimal surface the benches need; benchSearch runs its
// queries.
type benchEngine interface {
	Insert(id uint32, r geom.Rect) error
	Meter() cost.Meter
	ResetMeter()
}

// benchSearch runs one selection on e and discards its answers. A core
// index has one owner here, so it runs the read phase and then DrainStats,
// which applies the query's statistics record and takes one budgeted
// reorganization step; every other engine runs its own Search.
func benchSearch(e benchEngine, q geom.Rect, rel geom.Relation) error {
	all := func(uint32) bool { return true }
	if ix, ok := e.(*core.Index); ok {
		err := ix.SearchRead(q, rel, all)
		ix.DrainStats()
		return err
	}
	return e.(interface {
		Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error
	}).Search(q, rel, all)
}

type benchSetup struct {
	engine  benchEngine
	queries []geom.Rect
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchSetup{}
)

// getSetup builds (once) an engine loaded with objects from objSpec and
// warmed with the query stream, returning it plus a measurement query set.
func getSetup(b *testing.B, key string, build func() (benchEngine, error),
	objSpec workload.ObjectSpec, qSpec workload.QuerySpec, rel geom.Relation, warm int) *benchSetup {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchCache[key]; ok {
		return s
	}
	e, err := build()
	if err != nil {
		b.Fatal(err)
	}
	og, err := workload.NewObjectGen(objSpec)
	if err != nil {
		b.Fatal(err)
	}
	r := geom.NewRect(objSpec.Dims)
	for id := 0; id < benchObjects; id++ {
		og.Fill(r)
		if err := e.Insert(uint32(id), r); err != nil {
			b.Fatal(err)
		}
	}
	qg, err := workload.NewQueryGen(qSpec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := benchSearch(e, qg.Rect(), rel); err != nil {
			b.Fatal(err)
		}
	}
	s := &benchSetup{engine: e}
	for i := 0; i < 256; i++ {
		s.queries = append(s.queries, qg.Rect())
	}
	benchCache[key] = s
	return s
}

// runQueries is the measured loop shared by all query benches.
func runQueries(b *testing.B, s *benchSetup, rel geom.Relation) {
	b.Helper()
	s.engine.ResetMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.queries[i%len(s.queries)]
		if err := benchSearch(s.engine, q, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := s.engine.Meter()
	if m.Queries > 0 {
		b.ReportMetric(float64(m.ObjectsVerified)/float64(m.Queries), "objs/query")
		b.ReportMetric(float64(m.Explorations)/float64(m.Queries), "parts/query")
	}
}

func buildAC(dims int, p cost.Params) func() (benchEngine, error) {
	return func() (benchEngine, error) {
		return core.New(core.Config{Dims: dims, Params: p})
	}
}

func buildMethod(method string, dims int) func() (benchEngine, error) {
	switch method {
	case "SS":
		return func() (benchEngine, error) { return newBenchSeqScan(dims) }
	case "RS":
		return func() (benchEngine, error) { return newBenchRStar(dims) }
	case "AC":
		return buildAC(dims, cost.Memory())
	case "AC-disk":
		return buildAC(dims, cost.Disk())
	case "MBB":
		return func() (benchEngine, error) {
			return mbbclust.New(mbbclust.Config{Dims: dims, Params: cost.Memory()})
		}
	case "scan":
		// A reorganization period beyond any run keeps every object in
		// the root cluster.
		return func() (benchEngine, error) {
			return core.New(core.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: 1 << 30})
		}
	default:
		panic("unknown method " + method)
	}
}

// The public wrappers lock a mutex per call, which is what a user pays too;
// benches use the internal engines directly so the numbers isolate the
// algorithms. SS/RS come from the root package to also exercise the facade.
func newBenchSeqScan(dims int) (benchEngine, error) {
	s, err := NewSeqScan(dims)
	if err != nil {
		return nil, err
	}
	return facadeEngine{s}, nil
}

func newBenchRStar(dims int) (benchEngine, error) {
	t, err := NewRStar(dims)
	if err != nil {
		return nil, err
	}
	return facadeEngine{t}, nil
}

// facadeEngine adapts the public Index to benchEngine.
type facadeEngine struct{ Index }

func (f facadeEngine) Meter() cost.Meter {
	st := f.Stats()
	return cost.Meter{
		Queries:         st.Queries,
		Explorations:    st.PartitionsExplored,
		ObjectsVerified: st.ObjectsVerified,
	}
}
func (f facadeEngine) ResetMeter() { f.ResetStats() }

// fig7Spec returns the uniform workload of Fig. 7 with a calibrated query
// size for the target selectivity.
func fig7Spec(b *testing.B, sel float64) (workload.ObjectSpec, workload.QuerySpec) {
	b.Helper()
	objSpec := workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 1}
	size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, sel, 99)
	if err != nil {
		b.Fatal(err)
	}
	return objSpec, workload.QuerySpec{Dims: benchDims, Size: size, Seed: 2}
}

// BenchmarkFig7Memory reproduces Fig. 7 chart A / Table 1: intersection
// queries over a uniform workload, per-query cost by method and selectivity,
// clustering tuned for the memory scenario.
func BenchmarkFig7Memory(b *testing.B) {
	for _, sel := range []float64{5e-5, 5e-3, 5e-1} {
		objSpec, qSpec := fig7Spec(b, sel)
		for _, method := range []string{"SS", "RS", "scan", "AC"} {
			warm := 0
			if method == "AC" || method == "scan" {
				warm = 600
			}
			key := fmt.Sprintf("fig7mem/%s/%.0e", method, sel)
			s := getSetup(b, key, buildMethod(method, benchDims), objSpec, qSpec, geom.Intersects, warm)
			b.Run(fmt.Sprintf("sel=%.0e/%s", sel, method), func(b *testing.B) {
				runQueries(b, s, geom.Intersects)
			})
		}
	}
}

// BenchmarkFig7Disk reproduces Fig. 7 chart B / Table 2: the adaptive index
// clustered under the disk cost model (15 ms seeks make fine clusters
// unprofitable, so far fewer clusters form than in BenchmarkFig7Memory).
func BenchmarkFig7Disk(b *testing.B) {
	for _, sel := range []float64{5e-5, 5e-3, 5e-1} {
		objSpec, qSpec := fig7Spec(b, sel)
		key := fmt.Sprintf("fig7disk/AC/%.0e", sel)
		s := getSetup(b, key, buildMethod("AC-disk", benchDims), objSpec, qSpec, geom.Intersects, 600)
		b.Run(fmt.Sprintf("sel=%.0e/AC", sel), func(b *testing.B) {
			runQueries(b, s, geom.Intersects)
		})
	}
}

// BenchmarkFig8Dims reproduces Fig. 8 and its tables: skewed workload (per
// object a random quarter of the dimensions twice as selective),
// dimensionality swept, intersection selectivity held near 0.05%.
func BenchmarkFig8Dims(b *testing.B) {
	for _, dims := range []int{16, 28, 40} {
		objSpec := workload.ObjectSpec{Dims: dims, MaxSize: 1, Skewed: true, Seed: 3}
		size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, 5e-4, 98)
		if err != nil {
			b.Fatal(err)
		}
		qSpec := workload.QuerySpec{Dims: dims, Size: size, Seed: 4}
		for _, method := range []string{"SS", "RS", "scan", "AC"} {
			warm := 0
			if method == "AC" || method == "scan" {
				warm = 600
			}
			key := fmt.Sprintf("fig8/%s/%d", method, dims)
			s := getSetup(b, key, buildMethod(method, dims), objSpec, qSpec, geom.Intersects, warm)
			b.Run(fmt.Sprintf("dims=%d/%s", dims, method), func(b *testing.B) {
				runQueries(b, s, geom.Intersects)
			})
		}
	}
}

// BenchmarkPointEnclosing reproduces the §7.2 point-enclosing experiment:
// events (points) against a database of range subscriptions — the paper's
// best case, up to 16× over sequential scan in memory.
func BenchmarkPointEnclosing(b *testing.B) {
	objSpec := workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 5}
	qSpec := workload.QuerySpec{Dims: benchDims, Size: 0, Seed: 6}
	for _, method := range []string{"SS", "RS", "scan", "AC"} {
		warm := 0
		if method == "AC" || method == "scan" {
			warm = 600
		}
		key := "point/" + method
		s := getSetup(b, key, buildMethod(method, benchDims), objSpec, qSpec, geom.Encloses, warm)
		b.Run(method, func(b *testing.B) {
			runQueries(b, s, geom.Encloses)
		})
	}
}

// BenchmarkSearchBatch measures the batch query plane across batch sizes and
// dimensionalities on the point-enclosing workload (dims=16 shares
// BenchmarkPointEnclosing's cached engine): one SearchBatchRead per group of
// events against the looped SearchIDsAppendRead baseline, each read followed
// by DrainStats as a single owner runs it. A batch op
// covers its whole group, so compare looped ns/op × batch size against the
// batch rows — or read the ns/query metric directly. CI's benchstat job
// tracks these rows.
func BenchmarkSearchBatch(b *testing.B) {
	for _, dims := range []int{benchDims, 28} {
		objSpec := workload.ObjectSpec{Dims: dims, MaxSize: 1, Seed: 5}
		qSpec := workload.QuerySpec{Dims: dims, Size: 0, Seed: 6}
		key := "point/AC"
		if dims != benchDims {
			key = fmt.Sprintf("point%d/AC", dims)
		}
		s := getSetup(b, key, buildAC(dims, cost.Memory()), objSpec, qSpec, geom.Encloses, 600)
		eng, ok := s.engine.(*core.Index)
		if !ok {
			b.Fatalf("%s engine is %T, want *core.Index", key, s.engine)
		}
		b.Run(fmt.Sprintf("dims=%d/looped", dims), func(b *testing.B) {
			var buf []uint32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := eng.SearchIDsAppendRead(buf[:0], s.queries[i%len(s.queries)], geom.Encloses)
				eng.DrainStats()
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
		})
		for _, n := range []int{1, 4, 16, 64, 256} {
			batches := make([][]geom.Rect, 0, len(s.queries)/n)
			for i := 0; i+n <= len(s.queries); i += n {
				batches = append(batches, s.queries[i:i+n])
			}
			b.Run(fmt.Sprintf("dims=%d/batch=%d", dims, n), func(b *testing.B) {
				var dst geom.IDBatch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					err := eng.SearchBatchRead(&dst, batches[i%len(batches)], geom.Encloses)
					eng.DrainStats()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(n)), "ns/query")
			})
		}
	}
}

// BenchmarkAblationGrouping isolates the grouping criterion (E10): the
// paper's signature clustering versus classical minimum bounding in all
// dimensions, under the same cost model. Only objs/query and parts/query
// compare the criteria; ns/op also compares MBB's synchronous full-pass
// reorganization and scalar row-major verification with core's budgeted
// steps and column kernels (internal/mbbclust).
func BenchmarkAblationGrouping(b *testing.B) {
	objSpec := workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 7}
	size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, 5e-4, 97)
	if err != nil {
		b.Fatal(err)
	}
	qSpec := workload.QuerySpec{Dims: benchDims, Size: size, Seed: 8}
	for _, method := range []string{"AC", "MBB"} {
		key := "ablation-grouping/" + method
		s := getSetup(b, key, buildMethod(method, benchDims), objSpec, qSpec, geom.Intersects, 600)
		b.Run(method, func(b *testing.B) {
			runQueries(b, s, geom.Intersects)
		})
	}
}

// BenchmarkAblationDivision sweeps the division factor f (E11): finer
// candidate grids against heavier statistics maintenance.
func BenchmarkAblationDivision(b *testing.B) {
	objSpec := workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 9}
	size, _, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, 5e-4, 96)
	if err != nil {
		b.Fatal(err)
	}
	qSpec := workload.QuerySpec{Dims: benchDims, Size: size, Seed: 10}
	for _, f := range []int{2, 4, 8} {
		f := f
		key := fmt.Sprintf("ablation-f/%d", f)
		s := getSetup(b, key, func() (benchEngine, error) {
			return core.New(core.Config{Dims: benchDims, Params: cost.Memory(), DivisionFactor: f})
		}, objSpec, qSpec, geom.Intersects, 600)
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			runQueries(b, s, geom.Intersects)
		})
	}
}

// BenchmarkReorganize measures one reorganization round over a converged
// index (E12 companion: the steady-state maintenance cost paid every
// ReorgEvery queries).
func BenchmarkReorganize(b *testing.B) {
	objSpec, qSpec := fig7Spec(b, 5e-4)
	key := "reorg/AC"
	s := getSetup(b, key, buildMethod("AC", benchDims), objSpec, qSpec, geom.Intersects, 600)
	ix := s.engine.(*core.Index)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reorganize()
	}
}

// BenchmarkReorgChurn measures the query path while reorganization stays
// active (the hot region shifts every few reorganization periods) under the
// budgeted schedule. ns/op is the mean; the p99_us and max_us metrics expose
// the tail the budgets exist to flatten — benchstat diffs them across
// commits — and splits/query, merges/query and clusters show how much
// clustering work the stream kept the schedule doing under the default
// rule, which makes each split and merge earn back its relocations.
func BenchmarkReorgChurn(b *testing.B) {
	b.Run("budgeted", func(b *testing.B) {
		ix, err := NewAdaptive(8, WithReorgEvery(50))
		if err != nil {
			b.Fatal(err)
		}
		reorgHeavyLoad(b, ix, 20000, 21)
		splits0, merges0 := ix.Splits(), ix.Merges()
		q := NewRect(8)
		lat := make([]time.Duration, 0, b.N)
		var buf []uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hotQuery(q, i/200)
			start := time.Now()
			buf, err = ix.SearchIDsAppend(buf[:0], q, Intersects)
			if err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) > 0 {
			b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "p99_us")
			b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds())/1e3, "max_us")
		}
		b.ReportMetric(float64(ix.Splits()-splits0)/float64(b.N), "splits/query")
		b.ReportMetric(float64(ix.Merges()-merges0)/float64(b.N), "merges/query")
		b.ReportMetric(float64(ix.Clusters()), "clusters")
	})
}

// BenchmarkInsert measures the insertion paths: SS append, R* ChooseSubtree
// plus splits, AC lowest-access-probability placement over live clusters.
func BenchmarkInsert(b *testing.B) {
	for _, method := range []string{"SS", "RS", "AC"} {
		b.Run(method, func(b *testing.B) {
			e, err := buildMethod(method, benchDims)()
			if err != nil {
				b.Fatal(err)
			}
			og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			r := geom.NewRect(benchDims)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				og.Fill(r)
				if err := e.Insert(uint32(i), r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedThroughput compares parallel intersection-query throughput
// through the public API — where the lock contention the sharded engine
// removes actually lives: the single-mutex Adaptive facade versus Sharded at
// 1, 4 and 8 shards, all on the Fig. 7 workload at 0.5% selectivity, queried
// from GOMAXPROCS goroutines. ns/op is inverse throughput; the sharded
// engine's speedup comes from shards answering concurrently.
func BenchmarkShardedThroughput(b *testing.B) {
	objSpec, qSpec := fig7Spec(b, 5e-3)
	variants := []struct {
		name  string
		build func() (benchEngine, error)
	}{
		{"single", func() (benchEngine, error) {
			ix, err := NewAdaptive(benchDims)
			if err != nil {
				return nil, err
			}
			return facadeEngine{ix}, nil
		}},
	}
	for _, k := range []int{1, 4, 8} {
		k := k
		variants = append(variants, struct {
			name  string
			build func() (benchEngine, error)
		}{fmt.Sprintf("shards=%d", k), func() (benchEngine, error) {
			ix, err := NewSharded(benchDims, WithShards(k))
			if err != nil {
				return nil, err
			}
			return facadeEngine{ix}, nil
		}})
	}
	for _, v := range variants {
		s := getSetup(b, "sharded-throughput/"+v.name, v.build, objSpec, qSpec, geom.Intersects, 600)
		b.Run(v.name, func(b *testing.B) {
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Stagger the per-goroutine query streams.
				i := int(next.Add(1)) * 37
				for pb.Next() {
					q := s.queries[i%len(s.queries)]
					i++
					if err := benchSearch(s.engine, q, geom.Intersects); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedInsertBatch measures bulk-load paths: per-object inserts
// through the single mutex versus the sharded engine's pre-bucketed batch
// (each shard locked once, shards loading in parallel).
func BenchmarkShardedInsertBatch(b *testing.B) {
	og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: benchDims, MaxSize: 1, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 10000
	ids := make([]uint32, batch)
	rects := make([]Rect, batch)
	for k := range ids {
		ids[k] = uint32(k)
		rects[k] = NewRect(benchDims)
		og.Fill(rects[k])
	}
	b.Run("single-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix, err := NewAdaptive(benchDims)
			if err != nil {
				b.Fatal(err)
			}
			for k := range ids {
				if err := ix.Insert(ids[k], rects[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sharded-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix, err := NewSharded(benchDims, WithShards(8))
			if err != nil {
				b.Fatal(err)
			}
			if err := ix.InsertBatch(ids, rects); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreSaveLoad measures checkpointing and recovery (§6 layout)
// through an in-memory device.
func BenchmarkStoreSaveLoad(b *testing.B) {
	objSpec, qSpec := fig7Spec(b, 5e-3)
	s := getSetup(b, "store/AC", buildMethod("AC", benchDims), objSpec, qSpec, geom.Intersects, 600)
	ix := s.engine.(*core.Index)
	b.Run("Save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := store.NewMemDevice()
			if err := store.Save(ix, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Load", func(b *testing.B) {
		dev := store.NewMemDevice()
		if err := store.Save(ix, dev); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Load(dev, core.Config{Dims: benchDims}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentSearch measures the shared-lock query path at fixed
// client-goroutine counts: b.N queries split across g workers hammering one
// converged engine. On a multi-core runner queries/s should scale with g
// until cores run out (ns/op is wall time per query — lower under
// concurrency means the readers really overlap); on one core the figures
// stay flat, which is itself the regression signal for lock convoying.
func BenchmarkConcurrentSearch(b *testing.B) {
	objSpec, qSpec := fig7Spec(b, 5e-3)
	variants := []struct {
		name  string
		build func() (benchEngine, error)
	}{
		{"adaptive", func() (benchEngine, error) {
			ix, err := NewAdaptive(benchDims)
			if err != nil {
				return nil, err
			}
			return facadeEngine{ix}, nil
		}},
		{"sharded", func() (benchEngine, error) {
			ix, err := NewSharded(benchDims)
			if err != nil {
				return nil, err
			}
			return facadeEngine{ix}, nil
		}},
	}
	for _, v := range variants {
		s := getSetup(b, "concurrent-search/"+v.name, v.build, objSpec, qSpec, geom.Intersects, 600)
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/clients=%d", v.name, g), func(b *testing.B) {
				var wg sync.WaitGroup
				per := (b.N + g - 1) / g
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						i := w * 37 // stagger the per-goroutine query streams
						for k := 0; k < per; k++ {
							q := s.queries[i%len(s.queries)]
							i++
							if err := benchSearch(s.engine, q, geom.Intersects); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkTelemetryOverhead pins the flight recorder's steady-state cost on
// the warm query path: the same converged adaptive engine and query stream
// with telemetry off versus with the 1 ms sampler and the per-query latency
// histogram both live. The acceptance bar for the observability layer is a
// sub-2% delta between the two sub-benchmarks (compare with benchstat).
func BenchmarkTelemetryOverhead(b *testing.B) {
	objSpec, qSpec := fig7Spec(b, 5e-4)
	build := func(opts ...Option) (*Adaptive, []Rect) {
		b.Helper()
		a, err := NewAdaptive(benchDims, opts...)
		if err != nil {
			b.Fatal(err)
		}
		og, err := workload.NewObjectGen(objSpec)
		if err != nil {
			b.Fatal(err)
		}
		r := NewRect(benchDims)
		for id := 0; id < benchObjects; id++ {
			og.Fill(r)
			if err := a.Insert(uint32(id), r); err != nil {
				b.Fatal(err)
			}
		}
		qg, err := workload.NewQueryGen(qSpec)
		if err != nil {
			b.Fatal(err)
		}
		var dst []uint32
		for i := 0; i < 600; i++ { // converge the clustering before timing
			if dst, err = a.SearchIDsAppend(dst[:0], qg.Rect(), Intersects); err != nil {
				b.Fatal(err)
			}
		}
		queries := make([]Rect, 256)
		for i := range queries {
			queries[i] = qg.Rect()
		}
		return a, queries
	}
	run := func(b *testing.B, a *Adaptive, queries []Rect) {
		b.Helper()
		var dst []uint32
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, err = a.SearchIDsAppend(dst[:0], queries[i%len(queries)], Intersects); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		a, queries := build()
		defer a.Close()
		run(b, a, queries)
	})
	b.Run("on", func(b *testing.B) {
		tel, err := NewTelemetry(WithTelemetryInterval(time.Millisecond))
		if err != nil {
			b.Fatal(err)
		}
		defer tel.Close()
		a, queries := build(WithTelemetry(tel))
		defer a.Close()
		run(b, a, queries)
	})
}
