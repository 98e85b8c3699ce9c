package pubsub

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestPublishBatchMatchesLooped pins PublishBatch's contract: per-event
// counts and errors, handler invocations and their order, drop accounting,
// Stats and SubscriberStats all equal those of publishing the same events
// one at a time. Twin brokers hold the same subscriptions (some without a
// handler); one receives a mixed batch of point, range and malformed
// events, the other the same events through looped Publish calls. The
// reorganization period exceeds the stream, so both indexes keep the same
// clustering and answer in the same order.
//
// The queued run gives every subscriber a 1-slot queue whose handler is
// first occupied by a priming event that matches every subscription (the
// TestQueueFullDrops pattern): each subscriber's first match then fills its
// queue and every later one drops, so the drops are deterministic.
func TestPublishBatchMatchesLooped(t *testing.T) {
	schema := append(apartmentSchema(), Attribute{Name: "serial", Min: 0, Max: 1000})
	const primeSerial = 1000

	// The event stream: points bind every attribute, ranges leave some
	// free, and every seventh event is malformed in one of three ways.
	rng := rand.New(rand.NewSource(41))
	value := func(a Attribute) float64 { return a.Min + rng.Float64()*(a.Max-a.Min) }
	var evs []Event
	for i := 0; i < 60; i++ {
		ev := Event{"serial": Value(float64(i))}
		switch {
		case i%7 == 3:
			ev["floors"] = Value(2) // unknown attribute
		case i%7 == 5:
			ev["price"] = Value(99999) // outside the domain
		case i%7 == 6:
			ev["rooms"] = Range{Lo: 5, Hi: 3} // inverted
		case i%2 == 0:
			for _, a := range schema[:4] {
				ev[a.Name] = Value(value(a))
			}
		default:
			for _, a := range schema[:4] {
				if rng.Intn(2) == 0 {
					lo := value(a)
					ev[a.Name] = Range{Lo: lo, Hi: lo + rng.Float64()*(a.Max-lo)}
				}
			}
		}
		evs = append(evs, ev)
	}
	var subs []Subscription
	for i := 0; i < 40; i++ {
		sub := Subscription{}
		for _, a := range schema[:4] {
			if rng.Intn(3) > 0 {
				lo := value(a)
				sub[a.Name] = Range{Lo: lo, Hi: lo + rng.Float64()*(a.Max-lo)/2}
			}
		}
		subs = append(subs, sub)
	}

	type delivery struct {
		sub    uint32
		serial float64
	}
	// twin is one broker with its handler log.
	type twin struct {
		b       *Broker
		mu      sync.Mutex
		log     []delivery // every handler invocation, in call order
		block   chan struct{}
		started sync.WaitGroup
	}
	build := func(depth int) *twin {
		tw := &twin{block: make(chan struct{})}
		var err error
		if tw.b, err = NewBroker(schema, Options{QueueDepth: depth, ReorgEvery: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		for i, sub := range subs {
			var h Handler
			if i%5 != 4 {
				var once sync.Once
				tw.started.Add(1)
				h = func(id uint32, ev Event) {
					if ev["serial"].Lo == primeSerial {
						once.Do(tw.started.Done)
						<-tw.block
						return
					}
					tw.mu.Lock()
					tw.log = append(tw.log, delivery{id, ev["serial"].Lo})
					tw.mu.Unlock()
				}
			}
			if _, err := tw.b.SubscribeFunc(sub, h); err != nil {
				t.Fatal(err)
			}
		}
		return tw
	}
	errStrings := func(errs []error) []string {
		out := make([]string, len(errs))
		for i, err := range errs {
			if err != nil {
				out[i] = err.Error()
			}
		}
		return out
	}
	// perSub is the log split by subscriber: queued delivery orders events
	// per subscriber, not across subscribers.
	perSub := func(tw *twin) map[uint32][]float64 {
		tw.mu.Lock()
		defer tw.mu.Unlock()
		out := map[uint32][]float64{}
		for _, d := range tw.log {
			out[d.sub] = append(out[d.sub], d.serial)
		}
		return out
	}
	same := func(t *testing.T, what string, batch, looped any) {
		t.Helper()
		if !reflect.DeepEqual(batch, looped) {
			t.Fatalf("%s differ:\nbatch  %+v\nlooped %+v", what, batch, looped)
		}
	}

	for _, depth := range []int{0, 1} {
		t.Run(fmt.Sprintf("queue=%d", depth), func(t *testing.T) {
			batch, looped := build(depth), build(depth)
			if depth > 0 {
				// Occupy every handler, leaving each queue's one slot empty.
				prime := Event{"serial": Value(primeSerial)}
				for _, tw := range []*twin{batch, looped} {
					if n, err := tw.b.Publish(prime); err != nil || n != len(subs) {
						t.Fatalf("priming event matched %d of %d subscriptions (err %v)", n, len(subs), err)
					}
					tw.started.Wait()
				}
			} else {
				close(batch.block)
				close(looped.block)
			}

			counts, errs := batch.b.PublishBatch(evs)
			loopCounts := make([]int, len(evs))
			loopErrs := make([]error, len(evs))
			for i, ev := range evs {
				loopCounts[i], loopErrs[i] = looped.b.Publish(ev)
			}
			same(t, "counts", counts, loopCounts)
			same(t, "errors", errStrings(errs), errStrings(loopErrs))
			same(t, "stats", batch.b.Stats(), looped.b.Stats())
			same(t, "subscriber stats", batch.b.SubscriberStats(), looped.b.SubscriberStats())

			failed, matched := 0, 0
			for i := range evs {
				if errs[i] != nil {
					failed++
				}
				matched += counts[i]
			}
			if failed == 0 || matched == 0 {
				t.Fatalf("stream exercised %d errors and %d matches, want both", failed, matched)
			}

			if depth == 0 {
				same(t, "handler order", batch.log, looped.log)
				if len(batch.log) == 0 {
					t.Fatal("no handler ran")
				}
				return
			}
			if st := batch.b.Stats(); st.DroppedFull == 0 || st.Queued == 0 {
				t.Fatalf("queued run shed %d and queued %d deliveries, want both", st.DroppedFull, st.Queued)
			}
			// Release the handlers and drain every queue.
			for _, tw := range []*twin{batch, looped} {
				close(tw.block)
				tw.b.Close()
			}
			same(t, "handler order per subscriber", perSub(batch), perSub(looped))
			same(t, "stats after drain", batch.b.Stats(), looped.b.Stats())
			same(t, "subscriber stats after drain", batch.b.SubscriberStats(), looped.b.SubscriberStats())
		})
	}
}
