package main

import (
	"fmt"
	"math/rand"
	"sync"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/pubsub"
	"accluster/internal/workload"
)

// sdi-churn: the paper's §1 SDI scenario through internal/pubsub. Skewed
// extended subscriptions, each with a synchronous handler that only records
// the delivery, match point events published in fixed-size batches
// (Broker.PublishBatch, the all-point Encloses kernel); between batches a
// fixed number of Unsubscribe+Subscribe pairs keeps the population constant.
// The batch plane, the write path (signature-mirror maintenance) and
// reorganization under churn do most of the work here, and none of them runs
// in range-mem, so a read gain that costs writes, or the reverse, shows.
const (
	sdiDims        = 8
	sdiSubs        = 30_000
	sdiBatch       = 32
	sdiPairs       = 4
	sdiWarmBatches = 100
	// Subscription widths uniform in [0.3, 0.5] with a quarter of the
	// dimensions halved give 30000·0.4⁸/4 ≈ 4.9 matches per point event.
	sdiMinSize = 0.3
	sdiMaxSize = 0.5
	// sdiCheckOneIn is the share of batches the oracle replays: a
	// brute-force pass over every live subscription per event costs about
	// as much as the broker's own match, so checking one batch in eight
	// keeps the check a fraction of the run.
	sdiCheckOneIn = 8
)

type sdiChurn struct {
	seed    int64
	schema  pubsub.Schema
	names   []string
	initial *boxes
	warm    []float32 // warm-up event points, sdiWarmBatches·sdiBatch·sdiDims

	// reused call arguments: the broker reads them only during the call
	sub pubsub.Subscription
	evs []pubsub.Event

	b          *pubsub.Broker
	handler    pubsub.Handler
	slots      []uint32 // id of the subscription in each slot
	initialIDs []uint32 // slot ids after set-up
	delivered  []uint32 // ids delivered during the current batch
	deliveries int64

	// measured op stream
	rng   *rand.Rand
	churn *workload.ObjectGen
	pts   []float32 // the current batch's event points
	nlo   []float32 // the current op's new subscriptions, sdiPairs·sdiDims
	nhi   []float32
	vict  []uint32 // the current op's unsubscribed ids
	nids  []uint32 // the current op's subscribed ids
	idLog []uint32 // every id Subscribe returned in the measured phase

	// traced run: a twin core index fed the same rectangles and ids in
	// lockstep, in the broker's lockedIndex call sequence
	twin     *core.Index
	mu       sync.RWMutex
	twinRes  geom.IDBatch
	qs       []geom.Rect
	m0       cost.Meter
	twinDiff int
}

func newSDIChurn(seed int64) (*sdiChurn, error) {
	w := &sdiChurn{seed: seed, initial: newBoxes(sdiDims, sdiSubs), schema: make(pubsub.Schema, sdiDims)}
	for d := range w.schema {
		w.names = append(w.names, fmt.Sprintf("a%d", d))
		w.schema[d] = pubsub.Attribute{Name: w.names[d], Min: 0, Max: 1}
	}
	og, err := workload.NewObjectGen(w.subSpec(dataSeed))
	if err != nil {
		return nil, err
	}
	r := geom.NewRect(sdiDims)
	for i := 0; i < sdiSubs; i++ {
		og.Fill(r)
		w.initial.add(uint32(i), r.Min, r.Max)
	}
	rng := rand.New(rand.NewSource(subSeed(dataSeed, 3)))
	w.warm = make([]float32, sdiWarmBatches*sdiBatch*sdiDims)
	for i := range w.warm {
		w.warm[i] = rng.Float32()
	}
	w.sub = make(pubsub.Subscription, sdiDims)
	for i := 0; i < sdiBatch; i++ {
		w.evs = append(w.evs, make(pubsub.Event, sdiDims))
		w.qs = append(w.qs, geom.NewRect(sdiDims))
	}
	w.slots = make([]uint32, sdiSubs)
	w.initialIDs = make([]uint32, sdiSubs)
	w.delivered = make([]uint32, 0, 1<<12)
	w.pts = make([]float32, sdiBatch*sdiDims)
	w.nlo, w.nhi = make([]float32, sdiPairs*sdiDims), make([]float32, sdiPairs*sdiDims)
	w.vict, w.nids = make([]uint32, sdiPairs), make([]uint32, sdiPairs)
	w.handler = func(sub uint32, _ pubsub.Event) {
		w.delivered = append(w.delivered, sub)
		w.deliveries++
	}
	return w, nil
}

func (w *sdiChurn) subSpec(seed int64) workload.ObjectSpec {
	return workload.ObjectSpec{Dims: sdiDims, MinSize: sdiMinSize, MaxSize: sdiMaxSize, Skewed: true, Seed: seed}
}

func (w *sdiChurn) objects() int { return sdiSubs }

// fillSub loads box [lo, hi] into the reused subscription map; with the
// schema's [0,1] domains the broker's normalization returns lo and hi
// exactly.
func (w *sdiChurn) fillSub(lo, hi []float32) {
	for d, n := range w.names {
		w.sub[n] = pubsub.Range{Lo: float64(lo[d]), Hi: float64(hi[d])}
	}
}

// fillEvents loads the batch's points into the reused events (and, for the
// twin, the point queries).
func (w *sdiChurn) fillEvents(pts []float32) {
	for e, ev := range w.evs {
		p := pts[e*sdiDims : (e+1)*sdiDims]
		for d, n := range w.names {
			ev[n] = pubsub.Value(float64(p[d]))
		}
		copy(w.qs[e].Min, p)
		copy(w.qs[e].Max, p)
	}
}

func (w *sdiChurn) setup(*setupTimer) error {
	return w.build(false)
}

// build subscribes the initial population and publishes the warm-up
// batches, feeding the twin index in lockstep when twin is set.
func (w *sdiChurn) build(twin bool) error {
	b, err := pubsub.NewBroker(w.schema, pubsub.Options{})
	if err != nil {
		return err
	}
	w.b = b
	if twin {
		// The broker's single-index engine is core.New with the Options'
		// scenario and period, both zero here.
		if w.twin, err = core.New(core.Config{Dims: sdiDims}); err != nil {
			return err
		}
	}
	d := sdiDims
	for i := 0; i < sdiSubs; i++ {
		lo, hi := w.initial.lo[i*d:(i+1)*d], w.initial.hi[i*d:(i+1)*d]
		w.fillSub(lo, hi)
		id, err := b.SubscribeFunc(w.sub, w.handler)
		if err != nil {
			return err
		}
		w.slots[i] = id
		if twin {
			if err := w.twinInsert(id, lo, hi); err != nil {
				return err
			}
		}
	}
	copy(w.initialIDs, w.slots)
	for k := 0; k < sdiWarmBatches; k++ {
		w.fillEvents(w.warm[k*sdiBatch*d : (k+1)*sdiBatch*d])
		w.delivered = w.delivered[:0]
		if _, errs := b.PublishBatch(w.evs); firstErr(errs) != nil {
			return firstErr(errs)
		}
		if twin {
			if err := w.twinRead(); err != nil {
				return err
			}
		}
	}
	return nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sdiChurn) begin() {
	w.rng = rand.New(rand.NewSource(subSeed(w.seed, 4)))
	churn, err := workload.NewObjectGen(w.subSpec(subSeed(w.seed, 5)))
	if err != nil {
		panic(err) // the same spec built the initial population
	}
	w.churn = churn
	w.idLog = w.idLog[:0]
}

// nextOp draws operation i's inputs: the batch's event points, then for each
// churn pair the victim slot and the new subscription. check draws the same
// sequence.
func (w *sdiChurn) nextOp(rng *rand.Rand, churn *workload.ObjectGen, pts, nlo, nhi []float32, slots []int) {
	for k := range pts {
		pts[k] = rng.Float32()
	}
	r := geom.Rect{}
	for k := range slots {
		slots[k] = rng.Intn(sdiSubs)
		r.Min, r.Max = nlo[k*sdiDims:(k+1)*sdiDims], nhi[k*sdiDims:(k+1)*sdiDims]
		churn.Fill(r)
	}
}

// digestBatch splits the batch's deliveries by event (PublishBatch delivers
// in event order) and appends one digest per event; counts that claim more
// deliveries than were made append badDigest.
func digestBatch(dst []digest, delivered []uint32, counts []int) []digest {
	off := 0
	for _, c := range counts {
		if off+c > len(delivered) {
			dst = append(dst, badDigest)
			continue
		}
		dst = append(dst, digestOf(delivered[off:off+c]))
		off += c
	}
	return dst
}

func (w *sdiChurn) op(_ int, r *recorder) int {
	var slots [sdiPairs]int
	w.nextOp(w.rng, w.churn, w.pts, w.nlo, w.nhi, slots[:])
	w.fillEvents(w.pts)
	w.delivered = w.delivered[:0]
	c0, w0 := threadCPU(), wallNow()
	counts, errs := w.b.PublishBatch(w.evs)
	r.read(c0, w0)
	if err := firstErr(errs); err != nil {
		r.fail(err)
	}
	r.digests = digestBatch(r.digests, w.delivered, counts)
	for k, s := range slots {
		c0, w0 := threadCPU(), wallNow()
		ok := w.b.Unsubscribe(w.slots[s])
		r.write(c0, w0)
		if !ok {
			r.fail(fmt.Errorf("unsubscribe %d: not found", w.slots[s]))
		}
		w.fillSub(w.nlo[k*sdiDims:(k+1)*sdiDims], w.nhi[k*sdiDims:(k+1)*sdiDims])
		c0, w0 = threadCPU(), wallNow()
		id, err := w.b.SubscribeFunc(w.sub, w.handler)
		r.write(c0, w0)
		if err != nil {
			r.fail(err)
		}
		w.slots[s] = id
		w.idLog = append(w.idLog, id)
	}
	return sdiBatch
}

func (w *sdiChurn) meters() []meter {
	s := w.b.Stats()
	return []meter{
		{"subscriptions", int64(s.Subscriptions)},
		{"clusters", int64(s.Clusters)},
		{"events", s.Events},
		{"matches", s.Matches},
		{"deliveries", w.deliveries},
	}
}

// check replays the op stream over a brute-force model of the live
// subscriptions, applying each op's churn with the ids the broker returned,
// and recomputes every event of a seeded sample of batches.
func (w *sdiChurn) check(n int, digests []digest) (checked, failed int) {
	model := newBoxes(sdiDims, sdiSubs)
	for i := 0; i < sdiSubs; i++ {
		model.add(w.initialIDs[i], w.initial.lo[i*sdiDims:(i+1)*sdiDims], w.initial.hi[i*sdiDims:(i+1)*sdiDims])
	}
	rng := rand.New(rand.NewSource(subSeed(w.seed, 4)))
	churn, err := workload.NewObjectGen(w.subSpec(subSeed(w.seed, 5)))
	if err != nil {
		panic(err)
	}
	sample := rand.New(rand.NewSource(subSeed(w.seed, 6)))
	pts := make([]float32, sdiBatch*sdiDims)
	nlo, nhi := make([]float32, sdiPairs*sdiDims), make([]float32, sdiPairs*sdiDims)
	var slots [sdiPairs]int
	var buf []uint32
	for i := 0; i < n; i++ {
		w.nextOp(rng, churn, pts, nlo, nhi, slots[:])
		if sample.Intn(sdiCheckOneIn) == 0 {
			for e := 0; e < sdiBatch; e++ {
				p := pts[e*sdiDims : (e+1)*sdiDims]
				buf = model.match(buf[:0], p, p, encloses)
				checked++
				if k := i*sdiBatch + e; k >= len(digests) || digestOf(buf) != digests[k] {
					failed++
				}
			}
		}
		for k, s := range slots {
			model.set(s, w.idLog[i*sdiPairs+k], nlo[k*sdiDims:(k+1)*sdiDims], nhi[k*sdiDims:(k+1)*sdiDims])
		}
	}
	return checked, failed
}

func (w *sdiChurn) settle() error { return nil }

func (w *sdiChurn) close() error {
	w.b, w.twin = nil, nil
	w.deliveries = 0
	return nil
}

func (w *sdiChurn) twinInsert(id uint32, lo, hi []float32) error {
	r := geom.Rect{Min: append([]float32(nil), lo...), Max: append([]float32(nil), hi...)}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.twin.Insert(id, r)
}

// twinRead runs the broker's batch read on the twin: the shared-lock
// SearchBatchRead, then TryDrainStats.
func (w *sdiChurn) twinRead() error {
	w.mu.RLock()
	err := w.twin.SearchBatchRead(&w.twinRes, w.qs, geom.Encloses)
	w.mu.RUnlock()
	w.twin.TryDrainStats(&w.mu)
	return err
}

func (w *sdiChurn) setupTraced() error {
	if err := w.build(true); err != nil {
		return err
	}
	w.begin()
	w.m0 = w.twin.Meter()
	w.twinDiff = 0
	return nil
}

func (w *sdiChurn) opTraced(i int, t *tracer, dst []digest) []digest {
	var slots [sdiPairs]int
	w.nextOp(w.rng, w.churn, w.pts, w.nlo, w.nhi, slots[:])
	w.fillEvents(w.pts)
	w.delivered = w.delivered[:0]
	op := int32(i)
	var unsub, sub [sdiPairs]int32
	root := t.begin(rootSpan, op, -1)
	pub := t.begin("pubsub.publish", op, root)
	counts, errs := w.b.PublishBatch(w.evs)
	t.end(pub)
	for k, s := range slots {
		w.vict[k] = w.slots[s]
		unsub[k] = t.begin("pubsub.unsubscribe", op, root)
		ok := w.b.Unsubscribe(w.vict[k])
		t.end(unsub[k])
		if !ok {
			w.twinDiff++
		}
		w.fillSub(w.nlo[k*sdiDims:(k+1)*sdiDims], w.nhi[k*sdiDims:(k+1)*sdiDims])
		sub[k] = t.begin("pubsub.subscribe", op, root)
		id, err := w.b.SubscribeFunc(w.sub, w.handler)
		t.end(sub[k])
		if err != nil {
			w.twinDiff++
		}
		w.slots[s], w.nids[k] = id, id
	}
	t.end(root)
	if firstErr(errs) != nil {
		w.twinDiff++
	}
	first := len(dst)
	dst = digestBatch(dst, w.delivered, counts)

	// The twin replays the op after the root span closes, in the broker's
	// order; its spans are the core children of the broker calls they
	// mirror, so each broker call's self time excludes its core work.
	s := t.begin("core.read", op, pub)
	w.mu.RLock()
	err := w.twin.SearchBatchRead(&w.twinRes, w.qs, geom.Encloses)
	w.mu.RUnlock()
	t.end(s)
	s = t.begin("core.publish", op, pub)
	w.twin.TryDrainStats(&w.mu)
	t.end(s)
	if err != nil {
		w.twinDiff++
	}
	for e := 0; e < sdiBatch && err == nil; e++ {
		if digestOf(w.twinRes.Query(e)) != dst[first+e] {
			w.twinDiff++
		}
	}
	for k := range slots {
		w.mu.Lock()
		s := t.begin("core.write", op, unsub[k])
		ok := w.twin.Delete(w.vict[k])
		t.end(s)
		w.mu.Unlock()
		r := geom.Rect{Min: w.nlo[k*sdiDims : (k+1)*sdiDims], Max: w.nhi[k*sdiDims : (k+1)*sdiDims]}.Clone()
		w.mu.Lock()
		s = t.begin("core.write", op, sub[k])
		err := w.twin.Insert(w.nids[k], r)
		t.end(s)
		w.mu.Unlock()
		if !ok || err != nil {
			w.twinDiff++
		}
	}
	return dst
}

func (w *sdiChurn) tracedMeters() []meter { return w.meters() }

// tracedCheck compares the twin with the broker it mirrors: every answer,
// the cluster count and the total matches.
func (w *sdiChurn) tracedCheck() error {
	s := w.b.Stats()
	m := w.twin.Meter()
	if w.twinDiff > 0 || w.twin.Clusters() != s.Clusters || m.Results != s.Matches {
		return fmt.Errorf("twin index disagrees with the broker: %d differing calls, clusters %d vs %d, matches %d vs %d",
			w.twinDiff, w.twin.Clusters(), s.Clusters, m.Results, s.Matches)
	}
	return nil
}

func (w *sdiChurn) layers(p *phase, spans map[string]*layerTime, ops int) []metric {
	perCall := func(name string) float64 {
		lt := spans[name]
		if lt == nil {
			return 0
		}
		return float64(lt.Self) / float64(lt.Calls) / 1e3
	}
	return append(coreLayers(w.twin, w.m0, spans, ops),
		metric{"pubsub.publish.self_cpu_us", selfPerOp(spans, "pubsub.publish", ops), "us"},
		metric{"pubsub.subscribe.self_cpu_us", perCall("pubsub.subscribe"), "us"},
		metric{"pubsub.unsubscribe.self_cpu_us", perCall("pubsub.unsubscribe"), "us"},
		metric{"pubsub.write_p50_us", p.write[0].Value, "us"},
		metric{"pubsub.write_p99_us", p.write[1].Value, "us"},
		metric{"pubsub.matches_per_event", ratio(float64(p.delta("matches")), float64(p.delta("events"))), "count"},
	)
}
