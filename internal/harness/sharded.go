package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/shard"
	"accluster/internal/workload"
)

// MethodACPar is the sharded parallel adaptive engine.
const MethodACPar = "AC-par"

// shardEngine adapts shard.Engine to the harness Engine interface.
type shardEngine struct{ *shard.Engine }

func (e shardEngine) Partitions() int { return e.Clusters() }

// measureParallel runs the query set against e from `workers` concurrent
// client goroutines (each replaying a disjoint chunk) and summarizes the
// counters. MeasuredUS is wall time divided by total queries — the effective
// per-query latency under parallel load, i.e. the inverse throughput — while
// the modeled times still describe total sequential work per query.
func measureParallel(e Engine, queries []geom.Rect, rel geom.Relation, workers int) (MethodResult, error) {
	e.ResetMeter()
	chunk := (len(queries) + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, qs []geom.Rect) {
			defer wg.Done()
			for _, q := range qs {
				if err := e.Search(q, rel, func(uint32) bool { return true }); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, queries[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return MethodResult{}, err
		}
	}
	m := e.Meter()
	nq := float64(len(queries))
	objBytes := geom.ObjectBytes(queries[0].Dims())
	res := MethodResult{
		Partitions:    e.Partitions(),
		ModeledMemMS:  m.ModelMSPerQuery(cost.Memory(), objBytes),
		ModeledDiskMS: m.ModelMSPerQuery(cost.Disk(), objBytes),
		MeasuredUS:    float64(elapsed.Microseconds()) / nq,
		AvgResults:    float64(m.Results) / nq,
	}
	if e.Partitions() > 0 {
		res.ExploredPct = 100 * float64(m.Explorations) / nq / float64(e.Partitions())
	}
	if e.Len() > 0 {
		res.VerifiedPct = 100 * float64(m.ObjectsVerified) / nq / float64(e.Len())
	}
	return res, nil
}

// RunSharded measures the sharded parallel engine against a single adaptive
// index: the shard count is swept (1 means one index behind one
// reader/writer lock, the same locked index Adaptive wraps) and every point
// is measured under concurrent client load, so the table's measured wall
// times are inverse throughput. Modeled times stay flat across shard counts by design — the
// total work per query is unchanged; partitioning buys parallelism, not
// fewer verifications.
func RunSharded(o Options) (*Experiment, error) {
	o.setDefaults()
	clients := runtime.GOMAXPROCS(0)
	exp := &Experiment{
		ID:      "sharded",
		Title:   fmt.Sprintf("parallel query throughput by shard count (%d client goroutines)", clients),
		XLabel:  "shards",
		Methods: []string{MethodACPar},
	}
	objSpec := workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize, Seed: o.Seed}
	size, achieved, err := workload.CalibrateQuerySize(objSpec, geom.Intersects, o.Target, o.Seed+100)
	if err != nil {
		return nil, err
	}
	o.logf("sharded: selectivity %.2g -> query size %.4f (estimated %.2g)", o.Target, size, achieved)
	qspec := workload.QuerySpec{Dims: o.Dims, Size: size, Seed: o.Seed + 3}
	warmQs, err := genQueries(qspec, o.Warmup)
	if err != nil {
		return nil, err
	}
	measQs, err := genQueries(workload.QuerySpec{Dims: o.Dims, Size: size, Seed: qspec.Seed + 1}, o.Queries*clients)
	if err != nil {
		return nil, err
	}

	var baseUS float64
	for _, shards := range o.ShardSweep {
		e, err := shard.New(shard.Config{
			Shards: shards,
			Core:   core.Config{Dims: o.Dims, Params: cost.Memory(), ReorgEvery: o.ReorgEvery},
		})
		if err != nil {
			return nil, err
		}
		eng := shardEngine{e}
		o.logf("sharded: loading %d objects into %d shards", o.Objects, e.Shards())
		if err := load(map[string]Engine{MethodACPar: eng}, objSpec, o.Objects); err != nil {
			return nil, err
		}
		if err := warmup(eng, warmQs, geom.Intersects); err != nil {
			return nil, err
		}
		r, err := measureParallel(eng, measQs, geom.Intersects, clients)
		if err != nil {
			return nil, err
		}
		point := Point{Label: fmt.Sprintf("%d", e.Shards()), X: float64(e.Shards()),
			Results: map[string]MethodResult{MethodACPar: r}}
		exp.Points = append(exp.Points, point)
		qps := 1e6 / r.MeasuredUS
		if baseUS == 0 {
			baseUS = r.MeasuredUS
			exp.Notes = append(exp.Notes, fmt.Sprintf("%d shard(s): %.0f queries/s", e.Shards(), qps))
		} else {
			exp.Notes = append(exp.Notes, fmt.Sprintf("%d shards: %.0f queries/s (%.2fx over 1 shard)",
				e.Shards(), qps, baseUS/r.MeasuredUS))
		}
		o.logf("sharded: %d shards: %.1f µs/query under load (%.0f q/s)", e.Shards(), r.MeasuredUS, qps)
	}
	return exp, nil
}
