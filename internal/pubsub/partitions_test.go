package pubsub

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBrokerShardsAtMostOneIsOnePartition pins the mapping of Options.Shards
// ≤ 1 to a one-shard engine: 0 and negative counts must never reach
// shard.New, which reads 0 as one shard per GOMAXPROCS. Brokers built with
// −1, 0 and 1 run the same stream of subscribe, Match, Publish,
// PublishBatch (point and range events) and unsubscribe calls and must
// agree on every match id, count and Stats field.
func TestBrokerShardsAtMostOneIsOnePartition(t *testing.T) {
	schema := apartmentSchema()
	type transcript struct {
		matches [][]uint32
		counts  []int
		stats   Stats
	}
	run := func(shards int) transcript {
		b, err := NewBroker(schema, Options{ReorgEvery: 25, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if n := b.ix.Shards(); n != 1 {
			t.Fatalf("Shards=%d: engine has %d shards, want 1", shards, n)
		}
		rng := rand.New(rand.NewSource(29))
		value := func(a Attribute) float64 { return a.Min + rng.Float64()*(a.Max-a.Min) }
		span := func(a Attribute) Range {
			lo := value(a)
			return Range{Lo: lo, Hi: lo + rng.Float64()*(a.Max-lo)}
		}
		subscribe := func() {
			sub := Subscription{}
			for _, a := range schema {
				if rng.Intn(4) > 0 {
					sub[a.Name] = span(a)
				}
			}
			var h Handler
			if rng.Intn(2) == 0 {
				h = func(uint32, Event) {}
			}
			if _, err := b.SubscribeFunc(sub, h); err != nil {
				t.Fatal(err)
			}
		}
		event := func() Event {
			ev := Event{}
			point := rng.Intn(3) > 0
			for _, a := range schema {
				if point {
					ev[a.Name] = Value(value(a))
				} else if rng.Intn(2) == 0 {
					ev[a.Name] = span(a)
				}
			}
			return ev
		}

		var tr transcript
		for i := 0; i < 400; i++ {
			subscribe()
		}
		live := uint32(400)
		for round := 0; round < 40; round++ {
			ids, err := b.Match(event())
			if err != nil {
				t.Fatal(err)
			}
			tr.matches = append(tr.matches, ids)
			n, err := b.Publish(event())
			if err != nil {
				t.Fatal(err)
			}
			tr.counts = append(tr.counts, n)
			evs := make([]Event, 8)
			for i := range evs {
				evs[i] = event()
			}
			counts, errs := b.PublishBatch(evs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("batch event %d: %v", i, err)
				}
			}
			tr.counts = append(tr.counts, counts...)
			if !b.Unsubscribe(uint32(rng.Intn(int(live)))) {
				tr.counts = append(tr.counts, -1) // already gone
			}
			subscribe()
			live++
		}
		tr.stats = b.Stats()
		return tr
	}

	want := run(1)
	for _, shards := range []int{0, -1} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Errorf("Shards=%d diverges from Shards=1:\n got stats %+v\nwant stats %+v", shards, got.stats, want.stats)
		}
	}
	if want.stats.Matches == 0 || want.stats.Delivered == 0 {
		t.Fatalf("degenerate stream: %+v", want.stats)
	}
}
