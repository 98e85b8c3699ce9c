package main

import (
	"sync"

	"accluster"
	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/workload"
)

// range-mem: the paper's Fig. 7 in-memory experiment. Uniform 16-d objects
// (sizes up to the whole domain) answer intersection queries of selectivity
// 5e-3, one at a time through Adaptive.SearchIDsAppend with default options,
// so statistics publication and budgeted reorganization stay live. Nearly
// all the work is the single-query read path: signature-mirror scan and
// column verification, plus the publication and reorganization steps. There
// is no batch plane, no write and no disk.
const (
	rangeMemObjects     = 50_000
	rangeMemDims        = 16
	rangeSelectivity    = 5e-3
	rangeMemWarmQueries = 2_000
)

// rangeInputs are the generated inputs of the range workloads: uniform
// objects, the calibrated query size, the convergence warm-up queries and
// the seed of the measured query stream.
type rangeInputs struct {
	dims   int
	objs   []geom.Rect
	ids    []uint32
	oracle *boxes
	qsize  float32
	hot    *geom.Rect // when non-nil, queries centre in this box
	warm   []geom.Rect
	qseed  int64
}

// newRangeInputs draws the database from dataSeed, n uniform objects with
// sizes up to the whole domain and warm convergence queries, and seeds the
// measured query stream from seed.
func newRangeInputs(seed int64, dims, n, warm int, hot *geom.Rect) (*rangeInputs, error) {
	spec := workload.ObjectSpec{Dims: dims, MaxSize: 1, Seed: dataSeed}
	og, err := workload.NewObjectGen(spec)
	if err != nil {
		return nil, err
	}
	in := &rangeInputs{dims: dims, hot: hot, qseed: subSeed(seed, 2), oracle: newBoxes(dims, n)}
	for i := 0; i < n; i++ {
		r := og.Rect()
		in.objs = append(in.objs, r)
		in.ids = append(in.ids, uint32(i))
		in.oracle.add(uint32(i), r.Min, r.Max)
	}
	in.qsize, _, err = workload.CalibrateQuerySize(spec, geom.Intersects, rangeSelectivity, subSeed(dataSeed, 1))
	if err != nil {
		return nil, err
	}
	wg, err := in.queryGen(subSeed(dataSeed, 3))
	if err != nil {
		return nil, err
	}
	for i := 0; i < warm; i++ {
		in.warm = append(in.warm, wg.Rect())
	}
	return in, nil
}

func (in *rangeInputs) queryGen(seed int64) (*workload.QueryGen, error) {
	return workload.NewQueryGen(workload.QuerySpec{Dims: in.dims, Size: in.qsize, Focus: in.hot, Seed: seed})
}

// stream returns the measured query stream from its first query: a fresh
// generator replays the same queries on every run of a seed.
func (in *rangeInputs) stream() *workload.QueryGen {
	qg, err := in.queryGen(in.qseed)
	if err != nil {
		panic(err) // the same spec already built the warm-up generator
	}
	return qg
}

// check recomputes every query's answer by brute force: the objects never
// change, so each query sees the whole input set.
func (in *rangeInputs) check(n int, digests []digest) (checked, failed int) {
	qg := in.stream()
	q := geom.NewRect(in.dims)
	var buf []uint32
	for i := 0; i < n && i < len(digests); i++ {
		qg.Fill(q)
		buf = in.oracle.match(buf[:0], q.Min, q.Max, intersects)
		checked++
		if digestOf(buf) != digests[i] {
			failed++
		}
	}
	return checked, failed
}

type rangeMem struct {
	*rangeInputs

	// untraced engine and measured op stream
	a   *accluster.Adaptive
	qg  *workload.QueryGen
	q   geom.Rect
	buf []uint32

	// traced engine: the core index Adaptive wraps, driven in Adaptive's
	// call sequence
	mu sync.RWMutex
	ix *core.Index
	m0 cost.Meter // ix's meter when the traced op stream starts
}

// newRangeMem generates range-mem's inputs from seed.
func newRangeMem(seed int64) (*rangeMem, error) {
	in, err := newRangeInputs(seed, rangeMemDims, rangeMemObjects, rangeMemWarmQueries, nil)
	if err != nil {
		return nil, err
	}
	return &rangeMem{rangeInputs: in, q: geom.NewRect(in.dims), buf: make([]uint32, 0, len(in.objs))}, nil
}

func (w *rangeMem) objects() int { return len(w.objs) }

func (w *rangeMem) setup(*setupTimer) error {
	a, err := accluster.NewAdaptive(w.dims)
	if err != nil {
		return err
	}
	w.a = a
	if err := a.InsertBatch(w.ids, w.objs); err != nil {
		return err
	}
	buf := w.buf
	for _, q := range w.warm {
		if buf, err = a.SearchIDsAppend(buf[:0], q, accluster.Intersects); err != nil {
			return err
		}
	}
	return nil
}

func (w *rangeMem) begin() { w.qg = w.stream() }

func (w *rangeMem) op(_ int, r *recorder) int {
	w.qg.Fill(w.q)
	c0, w0 := threadCPU(), wallNow()
	ids, err := w.a.SearchIDsAppend(w.buf[:0], w.q, accluster.Intersects)
	r.read(c0, w0)
	if err != nil {
		r.fail(err)
	}
	w.buf = ids
	r.digests = append(r.digests, digestOf(ids))
	return 1
}

func (w *rangeMem) meters() []meter {
	s := w.a.Stats()
	return []meter{
		{"clusters", int64(w.a.Clusters())},
		{"queries", s.Queries},
		{"sig_checks", s.PartitionsChecked},
		{"explored", s.PartitionsExplored},
		{"objects_verified", s.ObjectsVerified},
		{"bytes_verified", s.BytesVerified},
		{"results", s.Results},
		{"reorg_rounds", w.a.ReorgRounds()},
		{"splits", w.a.Splits()},
		{"merges", w.a.Merges()},
	}
}

func (w *rangeMem) settle() error { return nil }

func (w *rangeMem) close() error {
	w.ix = nil
	if w.a == nil {
		return nil
	}
	err := w.a.Close()
	w.a = nil
	return err
}

func (w *rangeMem) setupTraced() error {
	// core.Config{Dims} is exactly what NewAdaptive derives from default
	// options; InsertBatch is Insert under the write lock, SearchIDsAppend
	// is the shared-lock read plus TryDrainStats.
	ix, err := core.New(core.Config{Dims: w.dims})
	if err != nil {
		return err
	}
	w.ix = ix
	for k := range w.ids {
		if err := ix.Insert(w.ids[k], w.objs[k]); err != nil {
			return err
		}
	}
	buf := w.buf
	for _, q := range w.warm {
		w.mu.RLock()
		buf, err = ix.SearchIDsAppendRead(buf[:0], q, geom.Intersects)
		w.mu.RUnlock()
		w.ix.TryDrainStats(&w.mu)
		if err != nil {
			return err
		}
	}
	w.begin()
	w.m0 = ix.Meter()
	return nil
}

func (w *rangeMem) opTraced(i int, t *tracer, dst []digest) []digest {
	w.qg.Fill(w.q)
	op := int32(i)
	root := t.begin(rootSpan, op, -1)
	w.mu.RLock()
	s := t.begin("core.read", op, root)
	ids, err := w.ix.SearchIDsAppendRead(w.buf[:0], w.q, geom.Intersects)
	t.end(s)
	w.mu.RUnlock()
	s = t.begin("core.publish", op, root)
	w.ix.TryDrainStats(&w.mu)
	t.end(s)
	t.end(root)
	w.buf = ids
	d := digestOf(ids)
	if err != nil {
		d = badDigest
	}
	return append(dst, d)
}

func (w *rangeMem) tracedMeters() []meter {
	m := w.ix.Meter()
	return []meter{
		{"clusters", int64(w.ix.Clusters())},
		{"queries", m.Queries},
		{"sig_checks", m.SigChecks},
		{"explored", m.Explorations},
		{"objects_verified", m.ObjectsVerified},
		{"bytes_verified", m.BytesVerified},
		{"results", m.Results},
		{"reorg_rounds", w.ix.ReorgRounds()},
		{"splits", w.ix.Splits()},
		{"merges", w.ix.Merges()},
	}
}

func (w *rangeMem) tracedCheck() error { return nil }

func (w *rangeMem) layers(_ *phase, spans map[string]*layerTime, ops int) []metric {
	return coreLayers(w.ix, w.m0, spans, ops)
}

// coreLayers returns the core.* metrics of a traced run over ix: counts are
// the meter's change since m0, timings the self time of the core spans per
// operation (per call for writes). The traced counts equal the untraced
// run's, which the determinism gate checks wherever the public API exposes
// them.
func coreLayers(ix *core.Index, m0 cost.Meter, spans map[string]*layerTime, ops int) []metric {
	m := ix.Meter()
	q := float64(m.Queries - m0.Queries)
	checks, explored := float64(m.SigChecks-m0.SigChecks), float64(m.Explorations-m0.Explorations)
	verified, results := float64(m.ObjectsVerified-m0.ObjectsVerified), float64(m.Results-m0.Results)
	var writeUS float64
	if lt := spans["core.write"]; lt != nil {
		writeUS = float64(lt.Self) / float64(lt.Calls) / 1e3
	}
	return []metric{
		{"core.read.cpu_us", selfPerOp(spans, "core.read", ops), "us"},
		{"core.publish.cpu_us", selfPerOp(spans, "core.publish", ops), "us"},
		{"core.write.cpu_us", writeUS, "us"},
		{"core.sig_checks_per_query", ratio(checks, q), "count"},
		{"core.explored_per_query", ratio(explored, q), "count"},
		{"core.objects_verified_per_query", ratio(verified, q), "count"},
		{"core.bytes_verified_per_query", ratio(float64(m.BytesVerified-m0.BytesVerified), q), "B"},
		{"core.clusters", float64(ix.Clusters()), "count"},
		{"core.reorg_rounds", float64(ix.ReorgRounds()), "count"},
		{"core.splits", float64(ix.Splits()), "count"},
		{"core.merges", float64(ix.Merges()), "count"},
		{"core.explore_ratio", ratio(explored, checks), "ratio"},
		{"core.useful_ratio", ratio(results, verified), "ratio"},
	}
}

// selfPerOp returns the self CPU time of the named spans per operation, in
// microseconds (0 where the workload never reached the layer).
func selfPerOp(spans map[string]*layerTime, name string, ops int) float64 {
	lt := spans[name]
	if lt == nil {
		return 0
	}
	return float64(lt.Self) / float64(ops) / 1e3
}

// dataSeed seeds every workload's database: its objects or subscriptions and
// the convergence warm-up that shapes its clustering. --seed picks the
// measured operation stream. Databases drawn from different seeds cluster
// differently enough to move per-query cost by more than a regression
// bound (disk-range's hot set fits its cache on some seeds and not on
// others), so two builds are always compared on the same database.
const dataSeed = 1

// subSeed derives an independent stream seed from the run's seed.
func subSeed(seed int64, stream uint64) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + stream))
}
