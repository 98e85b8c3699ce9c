// Package pubsub implements the paper's motivating application (§1): a
// selective-dissemination-of-information (SDI) notification system. Range
// subscriptions ("apartments between 400$ and 700$, 3 to 5 rooms") are
// multidimensional extended objects over a typed attribute schema; incoming
// events — points ("this apartment costs 550$, has 4 rooms") or ranges
// ("apartments for rent: 600$-900$") — are matched against the subscription
// database through the adaptive clustering index, which is exactly the
// workload the index was designed for: millions of subscriptions, tens of
// attributes, high event rates.
package pubsub

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"accluster/internal/core"
	"accluster/internal/cost"
	"accluster/internal/geom"
	"accluster/internal/shard"
	"accluster/internal/telemetry"
)

// Attribute defines one dimension of the subscription schema with its value
// domain; values are normalized into the index's [0,1] domain.
type Attribute struct {
	Name     string
	Min, Max float64
}

// Schema is an ordered attribute list.
type Schema []Attribute

// Validate checks the schema for duplicates and empty domains.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("pubsub: empty schema")
	}
	seen := make(map[string]bool, len(s))
	for _, a := range s {
		if a.Name == "" {
			return fmt.Errorf("pubsub: attribute with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("pubsub: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		if !(a.Max > a.Min) {
			return fmt.Errorf("pubsub: attribute %q has empty domain [%g,%g]", a.Name, a.Min, a.Max)
		}
	}
	return nil
}

// Range is a closed interval over one attribute's native domain.
type Range struct{ Lo, Hi float64 }

// Value returns the degenerate range for a single value.
func Value(v float64) Range { return Range{Lo: v, Hi: v} }

// Subscription is a conjunction of per-attribute ranges; attributes absent
// from the map accept any value.
type Subscription map[string]Range

// Event carries the attribute values (or ranges) of a published item.
// Attributes absent from a point event match only subscriptions that accept
// the whole domain on them; for range matching, absent attributes are
// treated as the full domain.
type Event map[string]Range

// Handler receives matched events for a subscription.
type Handler func(sub uint32, ev Event)

// subscriber is the delivery state of one handler-bearing subscription.
// delivered/dropped are atomics so the asynchronous deliverer and the stats
// surface never contend with the broker lock.
type subscriber struct {
	id        uint32
	h         Handler
	q         chan Event    // nil in synchronous mode
	done      chan struct{} // closed when the deliverer drained out
	closed    bool          // guarded by Broker.mu; q has been closed
	delivered atomic.Int64
	// Drops split by cause, matching the netbroker server's convention so
	// the in-process and networked delivery paths report identically:
	// droppedFull counts queue-overflow sheds, droppedClosed counts
	// matches that arrived after the subscriber was stopped but before it
	// was unregistered.
	droppedFull   atomic.Int64
	droppedClosed atomic.Int64
}

// run is the per-subscriber deliverer goroutine: it drains the queue in
// order, invoking the handler outside every broker lock, and keeps draining
// whatever was enqueued before close.
func (s *subscriber) run() {
	defer close(s.done)
	for ev := range s.q {
		s.h(s.id, ev)
		s.delivered.Add(1)
	}
}

// Broker is the notification engine. It is safe for concurrent use.
type Broker struct {
	schema Schema
	dims   map[string]int
	ix     *shard.Engine
	depth  int // per-subscriber queue capacity (0 = synchronous)

	mu       sync.Mutex
	nextID   uint32
	subs     map[uint32]*subscriber
	events   int64
	matches  int64
	closed   bool
	maxDepth atomic.Int64 // high-water mark of any subscriber queue
}

// Options tune the underlying adaptive index.
type Options struct {
	// Scenario selects the cost model (default in-memory).
	Scenario cost.Params
	// ReorgEvery is the reorganization period (default 100 events).
	ReorgEvery int
	// Shards is the number of partitions of the subscription index
	// (rounded up to a power of two). Every partition is one adaptive
	// index behind a reader/writer lock, so concurrent events match in
	// parallel even on one partition; with more, each event's matching
	// also fans out across cores. Any value ≤ 1 means one partition.
	Shards int
	// QueueDepth, when > 0, makes notification delivery asynchronous:
	// every handler-bearing subscription gets a bounded queue of this
	// capacity drained by its own goroutine, so one slow handler delays
	// only its own subscriber instead of the publisher. A full queue
	// drops the event for that subscriber (counted per subscriber);
	// call Close to stop the deliverers. 0 keeps the synchronous
	// invoke-from-Publish behavior.
	QueueDepth int
}

// NewBroker builds a broker over the given schema.
func NewBroker(schema Schema, opts Options) (*Broker, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("pubsub: queue depth must be ≥ 0, got %d", opts.QueueDepth)
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1 // shard.New reads 0 as one shard per GOMAXPROCS
	}
	ix, err := shard.New(shard.Config{
		Shards: shards,
		Core: core.Config{
			Dims:       len(schema),
			Params:     opts.Scenario,
			ReorgEvery: opts.ReorgEvery,
		},
	})
	if err != nil {
		return nil, err
	}
	dims := make(map[string]int, len(schema))
	for i, a := range schema {
		dims[a.Name] = i
	}
	return &Broker{
		schema: schema,
		dims:   dims,
		ix:     ix,
		depth:  opts.QueueDepth,
		subs:   make(map[uint32]*subscriber),
	}, nil
}

// normalize maps a native value into [0,1] for attribute d.
func (b *Broker) normalize(d int, v float64) (float32, error) {
	a := b.schema[d]
	if v < a.Min || v > a.Max {
		return 0, fmt.Errorf("pubsub: value %g outside domain [%g,%g] of %q", v, a.Min, a.Max, a.Name)
	}
	return float32((v - a.Min) / (a.Max - a.Min)), nil
}

// rectOf converts per-attribute ranges into an index rectangle; missing
// attributes span the full domain.
func (b *Broker) rectOf(ranges map[string]Range) (geom.Rect, error) {
	r := geom.NewRect(len(b.schema))
	for d := range b.schema {
		r.Max[d] = 1
	}
	for name, rg := range ranges {
		d, ok := b.dims[name]
		if !ok {
			return geom.Rect{}, fmt.Errorf("pubsub: unknown attribute %q", name)
		}
		if rg.Hi < rg.Lo {
			return geom.Rect{}, fmt.Errorf("pubsub: inverted range for %q", name)
		}
		lo, err := b.normalize(d, rg.Lo)
		if err != nil {
			return geom.Rect{}, err
		}
		hi, err := b.normalize(d, rg.Hi)
		if err != nil {
			return geom.Rect{}, err
		}
		r.Min[d], r.Max[d] = lo, hi
	}
	return r, nil
}

// Subscribe registers a subscription and returns its identifier.
func (b *Broker) Subscribe(sub Subscription) (uint32, error) {
	return b.SubscribeFunc(sub, nil)
}

// SubscribeFunc registers a subscription with a notification handler invoked
// for every matching event — directly from Publish in synchronous mode, or
// by the subscriber's deliverer goroutine with Options.QueueDepth > 0.
func (b *Broker) SubscribeFunc(sub Subscription, h Handler) (uint32, error) {
	r, err := b.rectOf(sub)
	if err != nil {
		return 0, err
	}
	// The handler is registered before the index insert: the subscription
	// cannot match until it is in the index, and a handler for an absent
	// id is inert.
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	if h != nil {
		s := &subscriber{id: id, h: h}
		if b.depth > 0 && !b.closed {
			s.q = make(chan Event, b.depth)
			s.done = make(chan struct{})
			go s.run()
		}
		b.subs[id] = s
	}
	b.mu.Unlock()
	if err := b.ix.Insert(id, r); err != nil {
		b.mu.Lock()
		if s := b.subs[id]; s != nil {
			b.stopLocked(s)
			delete(b.subs, id)
		}
		b.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// stopLocked closes a subscriber's queue (the deliverer drains what is
// already enqueued, then exits). Caller holds b.mu.
func (b *Broker) stopLocked(s *subscriber) {
	if s.q != nil && !s.closed {
		s.closed = true
		close(s.q)
	}
}

// Unsubscribe removes a subscription, reporting whether it existed. Events
// already queued for the subscriber are still delivered.
func (b *Broker) Unsubscribe(id uint32) bool {
	b.mu.Lock()
	if s := b.subs[id]; s != nil {
		b.stopLocked(s)
		delete(b.subs, id)
	}
	b.mu.Unlock()
	return b.ix.Delete(id)
}

// Close stops all deliverer goroutines, waiting until every queued event has
// been handled. The broker stays usable for Match afterwards; Publish still
// matches but no longer invokes handlers of queued subscribers. No-op in
// synchronous mode (and idempotent in both).
func (b *Broker) Close() error {
	b.mu.Lock()
	b.closed = true
	var waits []chan struct{}
	for _, s := range b.subs {
		b.stopLocked(s)
		if s.done != nil {
			waits = append(waits, s.done)
		}
	}
	b.mu.Unlock()
	for _, d := range waits {
		<-d
	}
	return nil
}

// Match returns the subscriptions matching the event: subscriptions whose
// ranges enclose a point event, or intersect a range event (range events let
// subscribers see offers close to their wishes, §1).
func (b *Broker) Match(ev Event) ([]uint32, error) {
	q, rel, err := b.eventQuery(ev)
	if err != nil {
		return nil, err
	}
	ids, err := b.ix.SearchIDs(q, rel)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.events++
	b.matches += int64(len(ids))
	b.mu.Unlock()
	return ids, nil
}

// Publish matches the event and notifies the handlers of all matching
// subscriptions: synchronously (outside the broker lock) by default, or by
// bounded per-subscriber queues with Options.QueueDepth > 0 — a full queue
// drops the event for that subscriber and counts the drop, so one slow
// consumer can never stall the publisher or its peers.
func (b *Broker) Publish(ev Event) (int, error) {
	ids, err := b.Match(ev)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	var direct []*subscriber
	for _, id := range ids {
		s := b.subs[id]
		if s == nil {
			continue
		}
		if s.q == nil {
			direct = append(direct, s)
			continue
		}
		if s.closed {
			s.droppedClosed.Add(1)
			continue
		}
		// Non-blocking enqueue under b.mu: the lock orders us against
		// stopLocked, so a send on a closed queue is impossible.
		select {
		case s.q <- ev:
			if d := int64(len(s.q)); d > b.maxDepth.Load() {
				b.maxDepth.Store(d)
			}
		default:
			s.droppedFull.Add(1)
		}
	}
	b.mu.Unlock()
	for _, s := range direct {
		s.h(s.id, ev)
		s.delivered.Add(1)
	}
	return len(ids), nil
}

// directDelivery is one synchronous handler invocation owed by a batch:
// subscriber s matched event evs[ev].
type directDelivery struct {
	s  *subscriber
	ev int
}

// PublishBatch publishes a batch of events through at most two batched index
// passes — the point events as one Encloses batch, the range events as one
// Intersects batch — instead of one index pass per event, and delivers every
// match under a single broker lock acquisition in event order. The returned
// slices are positional: counts[i] is the number of subscriptions event i
// matched and errs[i] its error (nil on success) — one malformed event fails
// only itself, never its batchmates. Per-event matching, delivery and drop
// accounting (DroppedFull/DroppedClosed) are exactly those of looped Publish
// calls; only Events/Matches bookkeeping and delivery locking are coalesced.
func (b *Broker) PublishBatch(evs []Event) ([]int, []error) {
	counts := make([]int, len(evs))
	errs := make([]error, len(evs))
	if len(evs) == 0 {
		return counts, errs
	}
	// Partition the batch by relation; each partition is one index batch.
	var (
		encQ, intQ     []geom.Rect
		encIdx, intIdx []int
	)
	for i, ev := range evs {
		q, rel, err := b.eventQuery(ev)
		if err != nil {
			errs[i] = err
			continue
		}
		if rel == geom.Encloses {
			encQ, encIdx = append(encQ, q), append(encIdx, i)
		} else {
			intQ, intIdx = append(intQ, q), append(intIdx, i)
		}
	}
	ids := make([][]uint32, len(evs))
	var encRes, intRes geom.IDBatch
	if len(encQ) > 0 {
		if err := b.ix.SearchIDsBatch(&encRes, encQ, geom.Encloses); err != nil {
			for _, i := range encIdx {
				errs[i] = err
			}
		} else {
			for k, i := range encIdx {
				ids[i] = encRes.Query(k)
			}
		}
	}
	if len(intQ) > 0 {
		if err := b.ix.SearchIDsBatch(&intRes, intQ, geom.Intersects); err != nil {
			for _, i := range intIdx {
				errs[i] = err
			}
		} else {
			for k, i := range intIdx {
				ids[i] = intRes.Query(k)
			}
		}
	}
	// Delivery: one lock acquisition for the whole batch, events in order.
	// Synchronous handlers run outside the lock afterwards, also in order.
	b.mu.Lock()
	var direct []directDelivery
	for i := range evs {
		if errs[i] != nil {
			continue
		}
		b.events++
		b.matches += int64(len(ids[i]))
		counts[i] = len(ids[i])
		for _, id := range ids[i] {
			s := b.subs[id]
			if s == nil {
				continue
			}
			if s.q == nil {
				direct = append(direct, directDelivery{s: s, ev: i})
				continue
			}
			if s.closed {
				s.droppedClosed.Add(1)
				continue
			}
			select {
			case s.q <- evs[i]:
				if d := int64(len(s.q)); d > b.maxDepth.Load() {
					b.maxDepth.Store(d)
				}
			default:
				s.droppedFull.Add(1)
			}
		}
	}
	b.mu.Unlock()
	for _, d := range direct {
		d.s.h(d.s.id, evs[d.ev])
		d.s.delivered.Add(1)
	}
	return counts, errs
}

// eventQuery converts an event into a query rectangle and relation.
func (b *Broker) eventQuery(ev Event) (geom.Rect, geom.Relation, error) {
	point := true
	for _, rg := range ev {
		if rg.Hi != rg.Lo {
			point = false
			break
		}
	}
	if point && len(ev) != len(b.schema) {
		// A point event must bind every attribute; otherwise treat the
		// free attributes as full ranges and fall back to intersection.
		point = false
	}
	q, err := b.rectOf(ev)
	if err != nil {
		return geom.Rect{}, 0, err
	}
	if point {
		return q, geom.Encloses, nil
	}
	return q, geom.Intersects, nil
}

// Stats summarizes broker activity.
type Stats struct {
	Subscriptions int
	Events        int64
	Matches       int64
	// Delivered totals the per-subscriber handler invocations. Dropped
	// totals every shed delivery, split by cause: DroppedFull counts
	// queue-overflow sheds, DroppedClosed counts matches that raced a
	// subscriber's shutdown. In synchronous mode all three are always 0.
	Delivered     int64
	Dropped       int64
	DroppedFull   int64
	DroppedClosed int64
	// Queued is the number of events currently waiting in subscriber
	// queues; MaxQueueDepth is the high-water mark any single queue
	// reached. Both are 0 in synchronous mode.
	Queued        int64
	MaxQueueDepth int64
	Clusters      int
}

// Stats returns a snapshot of broker activity.
func (b *Broker) Stats() Stats {
	subs, clusters := b.ix.Len(), b.ix.Clusters()
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{
		Subscriptions: subs,
		Events:        b.events,
		Matches:       b.matches,
		MaxQueueDepth: b.maxDepth.Load(),
		Clusters:      clusters,
	}
	for _, sub := range b.subs {
		s.Delivered += sub.delivered.Load()
		s.DroppedFull += sub.droppedFull.Load()
		s.DroppedClosed += sub.droppedClosed.Load()
		if sub.q != nil {
			s.Queued += int64(len(sub.q))
		}
	}
	s.Dropped = s.DroppedFull + s.DroppedClosed
	return s
}

// SubscriberStats describes the delivery state of one handler-bearing
// subscription.
type SubscriberStats struct {
	// ID is the subscription identifier.
	ID uint32
	// Delivered counts handler invocations; Dropped totals lost events,
	// split into DroppedFull (queue overflow) and DroppedClosed (matched
	// while the subscriber was shutting down).
	Delivered, Dropped         int64
	DroppedFull, DroppedClosed int64
	// QueueLen is the current queue occupancy (0 in synchronous mode).
	QueueLen int
}

// SubscriberStats returns per-subscriber delivery counters in id order
// (subscriptions without handlers have no delivery state and are omitted).
func (b *Broker) SubscriberStats() []SubscriberStats {
	b.mu.Lock()
	out := make([]SubscriberStats, 0, len(b.subs))
	for _, s := range b.subs {
		st := SubscriberStats{ID: s.id, Delivered: s.delivered.Load(),
			DroppedFull: s.droppedFull.Load(), DroppedClosed: s.droppedClosed.Load()}
		st.Dropped = st.DroppedFull + st.DroppedClosed
		if s.q != nil {
			st.QueueLen = len(s.q)
		}
		out = append(out, st)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TelemetrySource exposes broker activity as a flight-recorder gauge source.
func (b *Broker) TelemetrySource() telemetry.Source {
	return telemetry.Source{
		Name: "pubsub",
		Cols: []string{"subscriptions", "events", "matches", "delivered",
			"dropped_full", "dropped_closed", "queued", "max_queue_depth", "clusters"},
		Read: func(dst []int64) []int64 {
			s := b.Stats()
			return append(dst, int64(s.Subscriptions), s.Events, s.Matches,
				s.Delivered, s.DroppedFull, s.DroppedClosed, s.Queued,
				s.MaxQueueDepth, int64(s.Clusters))
		},
	}
}

// Schema returns the broker's attribute schema.
func (b *Broker) Schema() Schema { return b.schema }
