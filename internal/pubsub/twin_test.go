package pubsub

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
)

// TestBrokerMatchesCoreTwin pins the broker to the bare adaptive index it
// runs on. A broker and a core.Index with the same Dims and ReorgEvery take
// one seeded stream of subscribes, unsubscribes and mixed point/range
// PublishBatch calls; the twin gets the broker's own rectangles (rectOf,
// eventQuery) and runs each relation group of a batch as one SearchBatchRead
// followed by one DrainStats, the publication a locked index performs after
// each read. Every event's match list, in delivery order, and the cluster
// count after every batch must agree.
//
// The events crowd one corner of the space and the period is 50 queries, so
// the index clusters under the default rule, which charges each split its
// relocations against the statistics horizon (100 queries here). At 4 dims
// a relocation costs about 29 times a verification, more than a 10-query
// period's horizon of 20 can ever earn back.
func TestBrokerMatchesCoreTwin(t *testing.T) {
	schema := apartmentSchema()
	const reorgEvery = 50
	b, err := NewBroker(schema, Options{ReorgEvery: reorgEvery})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.New(core.Config{Dims: len(schema), ReorgEvery: reorgEvery})
	if err != nil {
		t.Fatal(err)
	}

	// Every subscription carries a synchronous handler, so the deliveries
	// of a batch are its events' match lists concatenated in event order.
	var delivered []uint32
	handler := func(sub uint32, _ Event) { delivered = append(delivered, sub) }

	rng := rand.New(rand.NewSource(57))
	value := func(a Attribute) float64 { return a.Min + rng.Float64()*(a.Max-a.Min) }
	// Events crowd the low end of every attribute, so subscriptions that
	// start high go unmatched: their candidates stay cold and split off.
	hot := func(a Attribute) float64 {
		u := rng.Float64()
		return a.Min + u*u*u*(a.Max-a.Min)
	}
	span := func(a Attribute, at func(Attribute) float64, width float64) Range {
		lo := at(a)
		return Range{Lo: lo, Hi: math.Min(a.Max, lo+rng.Float64()*width*(a.Max-a.Min))}
	}
	var live []uint32
	subscribe := func() {
		sub := Subscription{}
		for _, a := range schema {
			if rng.Intn(5) > 0 {
				sub[a.Name] = span(a, value, 0.4)
			}
		}
		id, err := b.SubscribeFunc(sub, handler)
		if err != nil {
			t.Fatal(err)
		}
		r, err := b.rectOf(sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(id, r); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	unsubscribe := func() {
		k := rng.Intn(len(live))
		id := live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		if got, want := b.Unsubscribe(id), twin.Delete(id); got != want {
			t.Fatalf("unsubscribe %d: broker %v, twin %v", id, got, want)
		}
	}
	event := func() Event {
		ev := Event{}
		point := rng.Intn(3) > 0
		for _, a := range schema {
			if point {
				ev[a.Name] = Value(hot(a))
			} else if rng.Intn(2) == 0 {
				ev[a.Name] = span(a, hot, 0.2)
			}
		}
		return ev
	}

	for i := 0; i < 1500; i++ {
		subscribe()
	}
	rels := [2]geom.Relation{geom.Encloses, geom.Intersects}
	var res [2]geom.IDBatch
	for round := 0; round < 60; round++ {
		evs := make([]Event, 1+rng.Intn(32))
		for i := range evs {
			evs[i] = event()
		}
		delivered = delivered[:0]
		counts, errs := b.PublishBatch(evs)

		var (
			qs  [2][]geom.Rect
			idx [2][]int
		)
		for i, ev := range evs {
			q, rel, err := b.eventQuery(ev)
			if err != nil {
				t.Fatal(err)
			}
			g := slices.Index(rels[:], rel)
			qs[g], idx[g] = append(qs[g], q), append(idx[g], i)
		}
		want := make([][]uint32, len(evs))
		for g := range rels {
			if len(qs[g]) == 0 {
				continue
			}
			if err := twin.SearchBatchRead(&res[g], qs[g], rels[g]); err != nil {
				t.Fatal(err)
			}
			twin.DrainStats()
			for k, i := range idx[g] {
				want[i] = res[g].Query(k)
			}
		}

		off := 0
		for i := range evs {
			if errs[i] != nil {
				t.Fatalf("round %d event %d: %v", round, i, errs[i])
			}
			if off+counts[i] > len(delivered) {
				t.Fatalf("round %d event %d: count %d overruns %d deliveries", round, i, counts[i], len(delivered))
			}
			if got := delivered[off : off+counts[i]]; !slices.Equal(got, want[i]) {
				t.Fatalf("round %d event %d: broker matched %v, twin %v", round, i, got, want[i])
			}
			off += counts[i]
		}
		if off != len(delivered) {
			t.Fatalf("round %d: %d deliveries beyond the counted matches", round, len(delivered)-off)
		}
		if got, want := b.Stats().Clusters, twin.Clusters(); got != want {
			t.Fatalf("round %d: broker has %d clusters, twin %d", round, got, want)
		}
		for k := rng.Intn(8); k > 0; k-- {
			unsubscribe()
			subscribe()
		}
	}
	if twin.Clusters() < 2 {
		t.Fatalf("the stream formed %d cluster(s); the test exercises no clustering", twin.Clusters())
	}
}
