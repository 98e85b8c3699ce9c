package harness

// Tail-latency experiment for the reorganization scheduler: the synchronous
// full pass (unlimited budgets, the pre-incremental behaviour) makes every
// ReorgEvery-th query absorb an O(clusters)+relocations spike, while the
// budgeted incremental scheduler spreads the same maintenance over bounded
// per-query steps. The experiment drives a reorg-heavy query stream — the
// hot region shifts every few reorganization periods, so merge/split churn
// never dies down — and reports the per-query latency distribution (p50,
// p90, p99, max) next to throughput and the clustering outcome for both
// modes. The win criterion: p99 and max improve; queries/s and the
// steady-state clustering hold.

import (
	"fmt"
	"sort"
	"time"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/workload"
)

// Latency-mode method names.
const (
	MethodACSync = "AC-sync" // synchronous full-pass reorganization
	MethodACInc  = "AC-inc"  // incremental budgeted reorganization
)

// latencyQuery fills q with the phase's hot box: the corner drifts every
// phaseLen queries so the clustering keeps reorganizing during measurement.
func latencyQuery(q geom.Rect, i, phaseLen int) {
	base := float32((i/phaseLen)%5) * 0.18
	for d := range q.Min {
		q.Min[d], q.Max[d] = base, base+0.15
	}
}

// runChurnStream is the reorg-heavy measurement: build a fresh index
// under the given reorganization schedule, load the workload's objects
// (small extents, so the hot boxes stay selective), then time each query of
// a stream whose hot region shifts every phaseLen queries. The returned
// latencies are sorted ascending.
func runChurnStream(o Options, reorgEvery, queries int, unbounded bool) (*core.Index, []time.Duration, time.Duration, error) {
	cfg := core.Config{Dims: o.Dims, Params: cost.Memory(), ReorgEvery: reorgEvery}
	if unbounded {
		cfg.ReorgBudgetClusters, cfg.ReorgBudgetObjects = -1, -1
	}
	ix, err := core.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	og, err := workload.NewObjectGen(workload.ObjectSpec{Dims: o.Dims, MaxSize: o.MaxObjSize * 0.05, Seed: o.Seed})
	if err != nil {
		return nil, nil, 0, err
	}
	r := geom.NewRect(o.Dims)
	for id := 0; id < o.Objects; id++ {
		og.Fill(r)
		if err := ix.Insert(uint32(id), r); err != nil {
			return nil, nil, 0, err
		}
	}
	q := geom.NewRect(o.Dims)
	lat := make([]time.Duration, 0, queries)
	ix.ResetMeter()
	start := time.Now()
	for i := 0; i < queries; i++ {
		latencyQuery(q, i, reorgEvery)
		qStart := time.Now()
		if err := ix.Search(q, geom.Intersects, func(uint32) bool { return true }); err != nil {
			return nil, nil, 0, err
		}
		lat = append(lat, time.Since(qStart))
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return ix, lat, elapsed, nil
}

// RunLatency measures the per-query latency distribution under the
// synchronous and the budgeted reorganization schedule over the identical
// workload.
func RunLatency(o Options) (*Experiment, error) {
	o.setDefaults()
	queries := o.Queries
	if queries < 1000 {
		// Percentiles need a population; the default figure-experiment
		// query count (200) is too small to place a p99.
		queries = 3000
	}

	exp := &Experiment{
		ID:      "latency",
		Title:   "query latency distribution under reorganization (budgeted vs synchronous)",
		XLabel:  "mode",
		Methods: []string{MethodACSync, MethodACInc},
	}
	point := Point{Label: "reorg-heavy", X: 0, Results: map[string]MethodResult{}}

	for _, m := range exp.Methods {
		o.logf("latency: %s over %d objects x %d dims", m, o.Objects, o.Dims)
		ix, lat, elapsed, err := runChurnStream(o, o.ReorgEvery, queries, m == MethodACSync)
		if err != nil {
			return nil, err
		}
		meter := ix.Meter()
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		res := MethodResult{
			Partitions:    ix.Clusters(),
			ModeledMemMS:  meter.ModelMSPerQuery(cost.Memory(), geom.ObjectBytes(o.Dims)),
			ModeledDiskMS: meter.ModelMSPerQuery(cost.Disk(), geom.ObjectBytes(o.Dims)),
			MeasuredUS:    float64(elapsed.Microseconds()) / float64(queries),
			AvgResults:    float64(meter.Results) / float64(queries),
			P50US:         us(lat[len(lat)/2]),
			P90US:         us(lat[len(lat)*90/100]),
			P99US:         us(lat[len(lat)*99/100]),
			MaxUS:         us(lat[len(lat)-1]),
		}
		if ix.Clusters() > 0 {
			res.ExploredPct = 100 * float64(meter.Explorations) / float64(queries) / float64(ix.Clusters())
		}
		if ix.Len() > 0 {
			res.VerifiedPct = 100 * float64(meter.ObjectsVerified) / float64(queries) / float64(ix.Len())
		}
		point.Results[m] = res
		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"%s: p50 %.0f µs, p99 %.0f µs, max %.0f µs, %.0f queries/s, %d clusters, %d splits, %d merges, %d rounds",
			m, res.P50US, res.P99US, res.MaxUS, 1e6/res.MeasuredUS,
			ix.Clusters(), ix.Splits(), ix.Merges(), ix.ReorgRounds()))
		o.logf("latency: %s p99 %.0f µs, max %.0f µs", m, res.P99US, res.MaxUS)
	}
	exp.Points = append(exp.Points, point)

	sync, inc := point.Results[MethodACSync], point.Results[MethodACInc]
	if inc.MaxUS > 0 && sync.MaxUS > 0 {
		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"budgeted vs synchronous: max %.1fx lower, p99 %.1fx, throughput %.2fx",
			sync.MaxUS/inc.MaxUS, sync.P99US/inc.P99US, sync.MeasuredUS/inc.MeasuredUS))
	}
	return exp, nil
}
