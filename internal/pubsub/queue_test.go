package pubsub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func queuedBroker(t *testing.T, depth int) *Broker {
	t.Helper()
	b, err := NewBroker(apartmentSchema(), Options{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQueuedDelivery(t *testing.T) {
	b := queuedBroker(t, 16)
	defer b.Close()
	var got atomic.Int64
	id, err := b.SubscribeFunc(Subscription{
		"price": {Lo: 400, Hi: 700},
	}, func(sub uint32, ev Event) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	const events = 10
	for i := 0; i < events; i++ {
		n, err := b.Publish(Event{
			"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2),
		})
		if err != nil || n != 1 {
			t.Fatalf("publish %d: n=%d err=%v", i, n, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < events {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d events", got.Load(), events)
		}
		time.Sleep(time.Millisecond)
	}
	s := b.Stats()
	if s.Delivered != events || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d delivered, 0 dropped", s, events)
	}
	if s.MaxQueueDepth < 1 || s.MaxQueueDepth > 16 {
		t.Fatalf("max queue depth = %d, want within [1,16]", s.MaxQueueDepth)
	}
	ss := b.SubscriberStats()
	if len(ss) != 1 || ss[0].ID != id || ss[0].Delivered != events {
		t.Fatalf("subscriber stats = %+v", ss)
	}
}

func TestQueueFullDrops(t *testing.T) {
	b := queuedBroker(t, 2)
	defer b.Close()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	if _, err := b.SubscribeFunc(Subscription{}, func(sub uint32, ev Event) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
	}); err != nil {
		t.Fatal(err)
	}
	ev := Event{"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2)}
	if _, err := b.Publish(ev); err != nil { // occupies the handler
		t.Fatal(err)
	}
	<-started
	// Two more fill the queue; everything beyond must drop, not block.
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Stats()
	if s.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (queue depth 2, 5 overflow publishes)", s.Dropped)
	}
	if s.DroppedFull != 3 || s.DroppedClosed != 0 {
		t.Fatalf("drop split = full %d / closed %d, want 3 / 0", s.DroppedFull, s.DroppedClosed)
	}
	if ss := b.SubscriberStats(); len(ss) != 1 || ss[0].DroppedFull != 3 || ss[0].Dropped != 3 {
		t.Fatalf("subscriber drop split = %+v", ss)
	}
	if s.Queued != 2 {
		t.Fatalf("queued = %d, want full queue of 2", s.Queued)
	}
	if s.MaxQueueDepth != 2 {
		t.Fatalf("max queue depth = %d, want 2", s.MaxQueueDepth)
	}
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Delivered < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d delivered after unblock", b.Stats().Delivered)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseDrainsQueues(t *testing.T) {
	b := queuedBroker(t, 64)
	var got atomic.Int64
	if _, err := b.SubscribeFunc(Subscription{}, func(sub uint32, ev Event) {
		time.Sleep(100 * time.Microsecond)
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	ev := Event{"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2)}
	const events = 20
	for i := 0; i < events; i++ {
		if _, err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != events {
		t.Fatalf("Close returned with %d of %d events delivered", got.Load(), events)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Publishing after Close must still match without blocking or panicking.
	if n, err := b.Publish(ev); err != nil || n != 1 {
		t.Fatalf("publish after close: n=%d err=%v", n, err)
	}
}

func TestUnsubscribeStopsDeliverer(t *testing.T) {
	b := queuedBroker(t, 8)
	defer b.Close()
	id, err := b.SubscribeFunc(Subscription{}, func(sub uint32, ev Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Unsubscribe(id) {
		t.Fatal("unsubscribe reported missing id")
	}
	if ss := b.SubscriberStats(); len(ss) != 0 {
		t.Fatalf("subscriber stats after unsubscribe = %+v", ss)
	}
	ev := Event{"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2)}
	if n, err := b.Publish(ev); err != nil || n != 0 {
		t.Fatalf("publish after unsubscribe: n=%d err=%v", n, err)
	}
}

func TestNegativeQueueDepthRejected(t *testing.T) {
	if _, err := NewBroker(apartmentSchema(), Options{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
}

// TestQueuedBrokerConcurrent is the -race stress: concurrent publishers,
// subscribe/unsubscribe churn, and stats readers against queued delivery.
func TestQueuedBrokerConcurrent(t *testing.T) {
	b, err := NewBroker(apartmentSchema(), Options{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := Event{"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Publish(ev); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // churn
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id, err := b.SubscribeFunc(Subscription{"price": {Lo: 400, Hi: 700}},
				func(sub uint32, ev Event) {})
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			if i%2 == 0 {
				b.Unsubscribe(id)
			}
		}
	}()
	wg.Add(1)
	go func() { // stats reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = b.Stats()
			_ = b.SubscriberStats()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	s := b.Stats()
	if s.Events == 0 {
		t.Fatal("no events matched during stress")
	}
}

// TestDroppedClosedCause pins the second drop cause: an event that matches
// a subscriber whose queue has been stopped (here by Close) is counted as
// dropped_closed, not dropped_full.
func TestDroppedClosedCause(t *testing.T) {
	b := queuedBroker(t, 4)
	if _, err := b.SubscribeFunc(Subscription{}, func(uint32, Event) {}); err != nil {
		t.Fatal(err)
	}
	b.Close() // stops the deliverer; the subscription still matches
	ev := Event{"distance": Value(10), "price": Value(550), "rooms": Value(4), "baths": Value(2)}
	if _, err := b.Publish(ev); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.DroppedClosed != 1 || s.DroppedFull != 0 || s.Dropped != 1 {
		t.Fatalf("drop split after close = %+v", s)
	}
}
