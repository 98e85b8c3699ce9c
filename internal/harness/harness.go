// Package harness regenerates every figure and table of the paper's
// evaluation (§7) plus the ablations indexed on Experiments. Experiments
// build the competing access methods (Adaptive Clustering, Sequential Scan,
// R*-tree, the one-cluster columnar scan, and the MBB-grouping ablation)
// over generated workloads, run warm-up queries so the adaptive clustering
// converges (the paper reports convergence within 10 reorganization steps),
// then measure: wall-clock time per query, modeled time under the in-memory
// and disk cost scenarios, the number of partitions (clusters/nodes), and
// the explored/verified fractions reported in the paper's data-access
// tables.
package harness

import (
	"fmt"
	"io"
	"time"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/mbbclust"
	"accluster/internal/rstar"
	"accluster/internal/seqscan"
	"accluster/internal/workload"
)

// Engine abstracts the access methods under test.
type Engine interface {
	Insert(id uint32, r geom.Rect) error
	Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error
	Meter() cost.Meter
	ResetMeter()
	Partitions() int
	Len() int
}

// engine adapters

type coreEngine struct{ *core.Index }

func (e coreEngine) Partitions() int { return e.Clusters() }

// Search runs the query's read phase and then applies its statistics record
// with one budgeted reorganization step: the serial cadence of a
// single-owner index.
func (e coreEngine) Search(q geom.Rect, rel geom.Relation, emit func(id uint32) bool) error {
	err := e.SearchRead(q, rel, emit)
	e.DrainStats()
	return err
}

type seqscanEngine struct{ *seqscan.Store }

func (e seqscanEngine) Partitions() int { return 1 }

type rstarEngine struct{ *rstar.Tree }

func (e rstarEngine) Partitions() int { return e.Nodes() }

type mbbEngine struct{ *mbbclust.Index }

func (e mbbEngine) Partitions() int { return e.Clusters() }

// Method names used across experiments.
const (
	MethodSS     = "SS"      // Sequential Scan
	MethodRS     = "RS"      // R*-tree
	MethodACMem  = "AC-mem"  // Adaptive Clustering tuned for the memory scenario
	MethodACDisk = "AC-disk" // Adaptive Clustering tuned for the disk scenario
	MethodMBB    = "MBB"     // minimum-bounding grouping ablation
	MethodScan   = "scan"    // one-cluster columnar scan: AC with reorganization off
)

// Options control experiment scale. The zero value picks defaults suitable
// for a few-minute run; the paper-scale values (2,000,000 objects) are
// reachable by setting Objects explicitly.
type Options struct {
	// Objects is the database size (default 100000).
	Objects int
	// Dims is the dimensionality for the selectivity experiments
	// (default 16); the dimensionality experiment uses DimsSweep.
	Dims int
	// Queries is the number of measured queries per point (default 200),
	// rounded up to whole ReorgEvery periods.
	Queries int
	// Warmup is the number of queries run before measuring so that the
	// adaptive clustering converges (default 10·ReorgEvery), rounded up
	// to whole ReorgEvery periods.
	Warmup int
	// ReorgEvery is the adaptive index reorganization period (default
	// 100, as in §7.1).
	ReorgEvery int
	// Seed drives all generators (default 1).
	Seed int64
	// Selectivities is the Fig. 7 sweep (default the paper's
	// 5e-7 … 5e-1).
	Selectivities []float64
	// DimsSweep is the Fig. 8 sweep (default 16,20,24,28,32,36,40).
	DimsSweep []int
	// Target is the Fig. 8 query selectivity (default 5e-4, the paper's
	// 0.05%).
	Target float64
	// MaxObjSize bounds object interval sizes (default 1).
	MaxObjSize float32
	// ShardSweep is the shard-count sweep of the sharded-engine
	// experiment (default 1,2,4,8; values are rounded up to powers of
	// two).
	ShardSweep []int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o *Options) setDefaults() {
	// Non-positive values (reachable through command-line flags) clamp to
	// the defaults: a negative ReorgEvery would otherwise disable the
	// reorganization schedule the experiments are about.
	if o.Objects <= 0 {
		o.Objects = 100000
	}
	if o.Dims <= 0 {
		o.Dims = 16
	}
	if o.Queries <= 0 {
		o.Queries = 200
	}
	if o.ReorgEvery <= 0 {
		o.ReorgEvery = 100
	}
	if o.Warmup <= 0 {
		o.Warmup = 10 * o.ReorgEvery
	}
	// The warm-up and the measured window cover whole reorganization
	// periods, so every measurement starts on a round boundary and spans
	// the same number of rounds. A window that straddles part of a round
	// measures where the round fell, not the index.
	o.Warmup = roundUp(o.Warmup, o.ReorgEvery)
	o.Queries = roundUp(o.Queries, o.ReorgEvery)
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Selectivities) == 0 {
		o.Selectivities = []float64{5e-7, 5e-6, 5e-5, 5e-4, 5e-3, 5e-2, 5e-1}
	}
	if len(o.DimsSweep) == 0 {
		o.DimsSweep = []int{16, 20, 24, 28, 32, 36, 40}
	}
	if o.Target == 0 {
		o.Target = 5e-4
	}
	if o.MaxObjSize == 0 {
		o.MaxObjSize = 1
	}
	if len(o.ShardSweep) == 0 {
		o.ShardSweep = []int{1, 2, 4, 8}
	}
}

// roundUp returns the smallest multiple of k that is ≥ n (n, k ≥ 1).
func roundUp(n, k int) int { return (n + k - 1) / k * k }

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// newEngine constructs one of the named methods.
func newEngine(method string, dims, reorgEvery int) (Engine, error) {
	switch method {
	case MethodSS:
		s, err := seqscan.New(dims)
		if err != nil {
			return nil, err
		}
		return seqscanEngine{s}, nil
	case MethodRS:
		t, err := rstar.New(rstar.Config{Dims: dims})
		if err != nil {
			return nil, err
		}
		return rstarEngine{t}, nil
	case MethodACMem:
		ix, err := core.New(core.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: reorgEvery})
		if err != nil {
			return nil, err
		}
		return coreEngine{ix}, nil
	case MethodACDisk:
		ix, err := core.New(core.Config{Dims: dims, Params: cost.Disk(), ReorgEvery: reorgEvery})
		if err != nil {
			return nil, err
		}
		return coreEngine{ix}, nil
	case MethodScan:
		// A reorganization period beyond any run keeps every object in
		// the root cluster.
		ix, err := core.New(core.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: 1 << 30})
		if err != nil {
			return nil, err
		}
		return coreEngine{ix}, nil
	case MethodMBB:
		ix, err := mbbclust.New(mbbclust.Config{Dims: dims, Params: cost.Memory(), ReorgEvery: reorgEvery})
		if err != nil {
			return nil, err
		}
		return mbbEngine{ix}, nil
	default:
		return nil, fmt.Errorf("harness: unknown method %q", method)
	}
}

// load inserts objects generated from spec into every engine.
func load(engines map[string]Engine, spec workload.ObjectSpec, n int) error {
	gens := make(map[string]*workload.ObjectGen, len(engines))
	for name := range engines {
		// Every engine receives the identical object stream.
		g, err := workload.NewObjectGen(spec)
		if err != nil {
			return err
		}
		gens[name] = g
	}
	r := geom.NewRect(spec.Dims)
	for name, e := range engines {
		g := gens[name]
		for id := 0; id < n; id++ {
			g.Fill(r)
			if err := e.Insert(uint32(id), r); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// MethodResult aggregates one method's behaviour at one experiment point.
type MethodResult struct {
	// Partitions is the number of clusters/nodes after the run.
	Partitions int
	// ExploredPct is the average percentage of partitions explored.
	ExploredPct float64
	// VerifiedPct is the average percentage of objects verified.
	VerifiedPct float64
	// ModeledMemMS and ModeledDiskMS are the modeled per-query times.
	ModeledMemMS, ModeledDiskMS float64
	// MeasuredUS is the measured wall-clock time per query (µs).
	MeasuredUS float64
	// AvgResults is the average answer-set size (observed selectivity ×
	// objects).
	AvgResults float64
	// CacheHits and CacheMisses are the region-cache split of explorations
	// over the run; zero on engines without a region cache.
	CacheHits, CacheMisses int64
}

// measure runs the query set against e and summarizes the counters. The
// modeled times use the paper's cost-model accounting (full per-object
// verification cost, see cost.Meter.ModelMS); early-exit effects show up in
// the measured wall time.
func measure(e Engine, queries []geom.Rect, rel geom.Relation) (MethodResult, error) {
	e.ResetMeter()
	start := time.Now()
	for _, q := range queries {
		if err := e.Search(q, rel, func(uint32) bool { return true }); err != nil {
			return MethodResult{}, err
		}
	}
	elapsed := time.Since(start)
	m := e.Meter()
	nq := float64(len(queries))
	objBytes := geom.ObjectBytes(queries[0].Dims())
	res := MethodResult{
		Partitions:    e.Partitions(),
		ModeledMemMS:  m.ModelMSPerQuery(cost.Memory(), objBytes),
		ModeledDiskMS: m.ModelMSPerQuery(cost.Disk(), objBytes),
		MeasuredUS:    float64(elapsed.Microseconds()) / nq,
		AvgResults:    float64(m.Results) / nq,
		CacheHits:     m.CacheHits,
		CacheMisses:   m.CacheMisses,
	}
	if e.Partitions() > 0 {
		res.ExploredPct = 100 * float64(m.Explorations) / nq / float64(e.Partitions())
	}
	if e.Len() > 0 {
		res.VerifiedPct = 100 * float64(m.ObjectsVerified) / nq / float64(e.Len())
	}
	return res, nil
}

// warmup runs queries without measuring, letting adaptive engines converge.
func warmup(e Engine, queries []geom.Rect, rel geom.Relation) error {
	for _, q := range queries {
		if err := e.Search(q, rel, func(uint32) bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

// genQueries produces n query rectangles from the given spec.
func genQueries(spec workload.QuerySpec, n int) ([]geom.Rect, error) {
	g, err := workload.NewQueryGen(spec)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Rect, n)
	for i := range out {
		out[i] = g.Rect()
	}
	return out, nil
}
