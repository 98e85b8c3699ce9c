package netbroker

// Loopback load benchmark: a Server fronting a pubsub.Broker is loaded over
// real loopback TCP with a standing-subscription population and a paced
// event stream, measuring end-to-end delivery latency — publisher timestamp
// to subscriber handler — through the wire protocol, the per-connection
// bounded queues and the client dispatch path. Events carry their serial in
// a dedicated attribute that subscriptions leave unconstrained, so
// correlation is exact without a side channel.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"accluster/internal/pubsub"
	"accluster/internal/telemetry"
)

// loopbackConfig sizes the load.
type loopbackConfig struct {
	subs  int     // standing subscriptions
	conns int     // subscriber connections sharing them
	rate  float64 // offered events per second
	dims  int     // spatial attributes (the serial attribute comes on top)
	width float64 // per-dimension subscription width
	queue int     // per-connection delivery queue depth
	seed  int64
}

// loopbackRig is a served broker with its subscriber connections and one
// publisher connection, ready to publish a fixed number of events.
type loopbackRig struct {
	cfg       loopbackConfig
	ctx       context.Context
	srv       *Server
	pub       *Client
	rng       *rand.Rand
	published []atomic.Int64 // publish time by serial, UnixNano
	hist      *telemetry.Histogram
	delivered atomic.Int64
}

// newLoopback serves a fresh broker on loopback, dials cfg.conns subscriber
// connections, registers cfg.subs subscriptions across them and dials the
// publisher; events is the number of events the rig will publish. Teardown
// is registered on tb.
func newLoopback(tb testing.TB, cfg loopbackConfig, events int) *loopbackRig {
	tb.Helper()
	schema := make(pubsub.Schema, 0, cfg.dims+1)
	for d := 0; d < cfg.dims; d++ {
		schema = append(schema, pubsub.Attribute{Name: fmt.Sprintf("x%d", d), Min: 0, Max: 1})
	}
	schema = append(schema, pubsub.Attribute{Name: "serial", Min: 0, Max: 1e9})
	broker, err := pubsub.NewBroker(schema, pubsub.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { broker.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := Serve(broker, ln, Options{QueueDepth: cfg.queue})
	if err != nil {
		ln.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	tb.Cleanup(cancel)

	r := &loopbackRig{
		cfg:       cfg,
		ctx:       ctx,
		srv:       srv,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		published: make([]atomic.Int64, events),
		hist:      telemetry.NewHistogram("broker_delivery_ns"),
	}
	// Handlers run on the subscriber read goroutines and correlate by
	// serial without locks.
	handler := func(_ uint32, ev pubsub.Event) {
		s := int(ev["serial"].Lo)
		if s < 0 || s >= len(r.published) {
			return
		}
		if t0 := r.published[s].Load(); t0 != 0 {
			r.hist.Record(time.Now().UnixNano() - t0)
		}
		r.delivered.Add(1)
	}
	clients := make([]*Client, cfg.conns)
	for i := range clients {
		cl, err := Dial(ctx, ln.Addr().String(), ClientOptions{Seed: cfg.seed + int64(i)})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { cl.Close() })
		clients[i] = cl
	}
	for i := 0; i < cfg.subs; i++ {
		sub := make(pubsub.Subscription, cfg.dims)
		for d := 0; d < cfg.dims; d++ {
			lo := r.rng.Float64() * (1 - cfg.width)
			sub[fmt.Sprintf("x%d", d)] = pubsub.Range{Lo: lo, Hi: lo + cfg.width}
		}
		if _, err := clients[i%cfg.conns].Subscribe(ctx, sub, handler); err != nil {
			tb.Fatalf("subscribe %d: %v", i, err)
		}
	}
	if r.pub, err = Dial(ctx, ln.Addr().String(), ClientOptions{Seed: cfg.seed + 100}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.pub.Close() })
	return r
}

// publish sends every event the rig was sized for, paced at cfg.rate in
// 10 ms ticks (catching up when behind), and returns the matches the
// server reported.
func (r *loopbackRig) publish(tb testing.TB) (matches int64) {
	tb.Helper()
	events := len(r.published)
	tick := 10 * time.Millisecond
	perTick := r.cfg.rate * tick.Seconds()
	begin := time.Now()
	for sent := 0; sent < events; {
		due := int(time.Since(begin).Seconds()*r.cfg.rate + perTick)
		if due > events {
			due = events
		}
		for ; sent < due; sent++ {
			ev := make(pubsub.Event, r.cfg.dims+1)
			for d := 0; d < r.cfg.dims; d++ {
				ev[fmt.Sprintf("x%d", d)] = pubsub.Value(r.rng.Float64())
			}
			ev["serial"] = pubsub.Value(float64(sent))
			r.published[sent].Store(time.Now().UnixNano())
			n, err := r.pub.Publish(r.ctx, ev)
			if err != nil {
				tb.Fatalf("publish %d: %v", sent, err)
			}
			matches += int64(n)
		}
		if sent < events {
			time.Sleep(tick)
		}
	}
	return matches
}

// drain lets in-flight deliveries land (up to 5 s), then shuts the server
// down so the queues flush before the counters are read.
func (r *loopbackRig) drain(matches int64) ServerStats {
	waitUntil := time.Now().Add(5 * time.Second)
	for r.delivered.Load() < matches && time.Now().Before(waitUntil) {
		time.Sleep(5 * time.Millisecond)
	}
	st := r.srv.Stats()
	r.srv.Shutdown()
	return st
}

// BenchmarkBrokerLoopback offers 1 100 events/s (10% above the 1k events/s
// acceptance floor, so pacing overhead cannot pull the achieved rate below
// it) to 10 000 standing subscriptions on 4 connections, three attributes
// wide 0.08 each (about 5 matches per point event), queue depth 1 024. The
// set-up runs outside the timer; b.N events are published, so ns/op is the
// pacing interval and the metrics carry the result: delivery latency
// quantiles, the achieved rate, matches per event and shed deliveries.
// Run it with a fixed count (CI uses -benchtime 3300x) so the latency
// population is the same on every run.
func BenchmarkBrokerLoopback(b *testing.B) {
	rig := newLoopback(b, loopbackConfig{
		subs: 10_000, conns: 4, rate: 1_100, dims: 3, width: 0.08, queue: 1024, seed: 1,
	}, b.N)
	b.ResetTimer()
	matches := rig.publish(b)
	b.StopTimer()
	st := rig.drain(matches)
	snap := rig.hist.Snapshot()
	b.ReportMetric(float64(snap.Quantile(0.5))/1e6, "p50_ms")
	b.ReportMetric(float64(snap.Quantile(0.99))/1e6, "p99_ms")
	b.ReportMetric(float64(snap.Max())/1e6, "max_ms")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(matches)/float64(b.N), "matches/event")
	b.ReportMetric(float64(st.DroppedOldest+st.DroppedNewest), "drops")
}

// TestBrokerBenchSmall runs the loopback load rig end to end at a CI-friendly
// scale and checks its measurements for consistency.
func TestBrokerBenchSmall(t *testing.T) {
	const events = 100
	rig := newLoopback(t, loopbackConfig{
		subs: 200, conns: 2, rate: 2_000, dims: 3, width: 0.2, queue: 256, seed: 7,
	}, events)
	matches := rig.publish(t)
	rig.drain(matches)
	if matches == 0 || rig.delivered.Load() == 0 {
		t.Fatalf("%d matches, %d deliveries: subscription widths should match some events", matches, rig.delivered.Load())
	}
	snap := rig.hist.Snapshot()
	p50, p99, worst := snap.Quantile(0.5), snap.Quantile(0.99), snap.Max()
	if p50 < 0 || p99 < p50 || worst < p99 {
		t.Fatalf("latency ordering violated: p50=%v p99=%v max=%v", p50, p99, worst)
	}
}
