// Command sdid is an interactive selective-dissemination (publish/subscribe)
// daemon over the adaptive clustering index — the paper's motivating
// application (§1). It reads commands from stdin:
//
//	sub price=400:700 rooms=3:5 baths=2     register a range subscription
//	unsub 3                                  remove subscription 3
//	pub price=550 rooms=4 baths=2 dist=12    publish a point event
//	pub price=600:900 rooms=3:5              publish a range event
//	stats                                    subscription/cluster statistics
//	quit
//
// The attribute schema is configured with repeated -attr flags:
//
//	sdid -attr dist:0:100 -attr price:0:5000 -attr rooms:1:10 -attr baths:1:5
//
// With -queue N, subscriptions registered by sub get an N-deep asynchronous
// delivery queue each (matched events print as they drain); stats then also
// reports the delivered/dropped counters and the peak queue depth. With
// -telemetry addr, a flight recorder samples the broker and Go runtime once
// per second and serves /telemetry, /telemetry/dump and /debug/pprof on addr.
//
// # Networked operation
//
//	sdid -listen 127.0.0.1:7070                serve the broker over TCP
//	sdid -connect 127.0.0.1:7070               drive a remote broker
//
// With -listen, the broker is additionally served to netbroker clients on
// the given address; -netqueue, -policy (dropoldest, dropnewest,
// disconnect), -maxconns and -drain tune the per-connection delivery
// queues, slow-consumer policy, connection limit and shutdown drain
// deadline. -queue is rejected with -listen: the connections queue their
// deliveries themselves, so the broker delivers synchronously.
// SIGINT/SIGTERM (and quit) drain gracefully: queued deliveries are flushed
// up to the drain deadline before the process exits.
//
// With -connect, the same commands run against a remote sdid -listen
// instance: sub registers a standing subscription whose matches stream
// back and print as they arrive, and the connection survives broker
// restarts — the client redials with backoff and resubscribes.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accluster/internal/netbroker"
	"accluster/internal/pubsub"
	"accluster/internal/telemetry"
)

func parseRange(s string) (pubsub.Range, error) {
	parts := strings.SplitN(s, ":", 2)
	lo, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return pubsub.Range{}, fmt.Errorf("bad number %q", parts[0])
	}
	if len(parts) == 1 {
		return pubsub.Value(lo), nil
	}
	hi, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return pubsub.Range{}, fmt.Errorf("bad number %q", parts[1])
	}
	return pubsub.Range{Lo: lo, Hi: hi}, nil
}

func parseRanges(args []string) (map[string]pubsub.Range, error) {
	out := make(map[string]pubsub.Range, len(args))
	for _, a := range args {
		kv := strings.SplitN(a, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("expected attr=lo[:hi], got %q", a)
		}
		r, err := parseRange(kv[1])
		if err != nil {
			return nil, err
		}
		out[kv[0]] = r
	}
	return out, nil
}

// session is the command surface the REPL drives — backed either by the
// local broker or by a netbroker client connected to a remote one.
type session interface {
	subscribe(ranges map[string]pubsub.Range) (uint32, error)
	unsubscribe(id uint32) (bool, error)
	publish(ranges map[string]pubsub.Range) (string, error)
	stats() string
}

type localSession struct {
	broker *pubsub.Broker
	queue  int
	srv    *netbroker.Server // nil unless -listen
}

func (s *localSession) subscribe(ranges map[string]pubsub.Range) (uint32, error) {
	if s.queue > 0 {
		// Async delivery: matched events print as each subscriber's
		// deliverer drains its queue.
		return s.broker.SubscribeFunc(pubsub.Subscription(ranges),
			func(sub uint32, ev pubsub.Event) {
				fmt.Printf("deliver #%d: %v\n", sub, ev)
			})
	}
	return s.broker.Subscribe(pubsub.Subscription(ranges))
}

func (s *localSession) unsubscribe(id uint32) (bool, error) {
	return s.broker.Unsubscribe(id), nil
}

func (s *localSession) publish(ranges map[string]pubsub.Range) (string, error) {
	if s.queue > 0 || s.srv != nil {
		n, err := s.broker.Publish(pubsub.Event(ranges))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("matched %d subscription(s), queued for delivery", n), nil
	}
	ids, err := s.broker.Match(pubsub.Event(ranges))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("matched %d subscription(s): %v", len(ids), ids), nil
}

func (s *localSession) stats() string {
	st := s.broker.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "subscriptions=%d events=%d matches=%d clusters=%d",
		st.Subscriptions, st.Events, st.Matches, st.Clusters)
	if s.queue > 0 {
		fmt.Fprintf(&b, "\ndelivered=%d dropped_full=%d dropped_closed=%d queued=%d max_queue_depth=%d",
			st.Delivered, st.DroppedFull, st.DroppedClosed, st.Queued, st.MaxQueueDepth)
		for _, ss := range s.broker.SubscriberStats() {
			fmt.Fprintf(&b, "\n  #%d delivered=%d dropped=%d", ss.ID, ss.Delivered, ss.Dropped)
		}
	}
	if s.srv != nil {
		nst := s.srv.Stats()
		fmt.Fprintf(&b, "\nnet: conns=%d/%d net_subs=%d delivered=%d dropped_oldest=%d dropped_newest=%d slow_disconnects=%d corrupt_frames=%d dead_peers=%d",
			nst.ActiveConns, nst.TotalConns, nst.Subscriptions, nst.Delivered,
			nst.DroppedOldest, nst.DroppedNewest, nst.SlowDisconnects,
			nst.CorruptFrames, nst.DeadPeers)
	}
	return b.String()
}

type remoteSession struct {
	ctx context.Context
	cl  *netbroker.Client
}

func (s *remoteSession) subscribe(ranges map[string]pubsub.Range) (uint32, error) {
	return s.cl.Subscribe(s.ctx, pubsub.Subscription(ranges),
		func(sub uint32, ev pubsub.Event) {
			fmt.Printf("deliver #%d: %v\n", sub, ev)
		})
}

func (s *remoteSession) unsubscribe(id uint32) (bool, error) {
	return s.cl.Unsubscribe(s.ctx, id)
}

func (s *remoteSession) publish(ranges map[string]pubsub.Range) (string, error) {
	n, err := s.cl.Publish(s.ctx, pubsub.Event(ranges))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("matched %d subscription(s), streaming to subscribers", n), nil
}

func (s *remoteSession) stats() string {
	st := s.cl.Stats()
	return fmt.Sprintf("connected=%v reconnects=%d delivered=%d corrupt_frames=%d subscriptions=%d",
		st.Connected, st.Reconnects, st.Delivered, st.CorruptFrames, st.Subscriptions)
}

// runREPL drives a session from in until quit/EOF.
func runREPL(in io.Reader, s session) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "sub":
			ranges, err := parseRanges(fields[1:])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			id, err := s.subscribe(ranges)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("subscribed #%d\n", id)
		case "unsub":
			if len(fields) != 2 {
				fmt.Println("error: usage: unsub <id>")
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			existed, err := s.unsubscribe(uint32(id))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if existed {
				fmt.Printf("removed #%d\n", id)
			} else {
				fmt.Printf("no subscription #%d\n", id)
			}
		case "pub":
			ranges, err := parseRanges(fields[1:])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			line, err := s.publish(ranges)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(line)
		case "stats":
			fmt.Println(s.stats())
		default:
			fmt.Println("commands: sub, unsub, pub, stats, quit")
		}
	}
	return sc.Err()
}

func main() {
	var schema pubsub.Schema
	flag.Func("attr", "attribute as name:min:max (repeatable)", func(s string) error {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return fmt.Errorf("want name:min:max")
		}
		min, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return err
		}
		max, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return err
		}
		schema = append(schema, pubsub.Attribute{Name: parts[0], Min: min, Max: max})
		return nil
	})
	reorg := flag.Int("reorg", 100, "events between cluster reorganizations")
	queue := flag.Int("queue", 0, "per-subscriber async delivery queue depth (0 = synchronous matching only)")
	telAddr := flag.String("telemetry", "", "serve the flight-recorder introspection endpoint on this address (e.g. 127.0.0.1:8125)")
	listen := flag.String("listen", "", "serve the broker to netbroker clients on this address (e.g. 127.0.0.1:7070)")
	connect := flag.String("connect", "", "drive a remote sdid -listen instance instead of a local broker")
	policy := flag.String("policy", "dropoldest", "slow-consumer policy for -listen connections: dropoldest, dropnewest or disconnect")
	netQueue := flag.Int("netqueue", 0, "per-connection delivery queue depth for -listen (0 = default)")
	maxConns := flag.Int("maxconns", 0, "connection limit for -listen (0 = default)")
	drain := flag.Duration("drain", 0, "shutdown drain deadline for -listen (0 = default)")
	flag.Parse()

	if err := checkFlags(*listen, *connect, *queue); err != nil {
		fmt.Fprintf(os.Stderr, "sdid: %v\n", err)
		os.Exit(1)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	if *connect != "" {
		if err := runConnect(*connect, sigCh); err != nil {
			fmt.Fprintf(os.Stderr, "sdid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if len(schema) == 0 {
		schema = pubsub.Schema{
			{Name: "dist", Min: 0, Max: 100},
			{Name: "price", Min: 0, Max: 5000},
			{Name: "rooms", Min: 1, Max: 10},
			{Name: "baths", Min: 1, Max: 5},
		}
		fmt.Println("sdid: using default apartment schema (dist, price, rooms, baths)")
	}
	broker, err := pubsub.NewBroker(schema, pubsub.Options{ReorgEvery: *reorg, QueueDepth: *queue})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdid: %v\n", err)
		os.Exit(1)
	}
	defer broker.Close()

	sess := &localSession{broker: broker, queue: *queue}

	if *listen != "" {
		pol, err := netbroker.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdid: %v\n", err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdid: listen: %v\n", err)
			os.Exit(1)
		}
		srv, err := netbroker.Serve(broker, ln, netbroker.Options{
			QueueDepth: *netQueue, Policy: pol,
			MaxConns: *maxConns, DrainDeadline: *drain,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdid: %v\n", err)
			os.Exit(1)
		}
		sess.srv = srv
		fmt.Printf("sdid: serving broker on %s (policy %v)\n", ln.Addr(), pol)
	}

	if *telAddr != "" {
		rec := telemetry.New(telemetry.Config{})
		rec.Register(telemetry.RuntimeSource())
		rec.Register(broker.TelemetrySource())
		if sess.srv != nil {
			rec.Register(sess.srv.TelemetrySource())
		}
		rec.Start()
		defer rec.Close()
		srv, err := telemetry.Serve(rec, *telAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdid: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("sdid: telemetry on http://%s/telemetry\n", srv.Addr())
	}

	replDone := make(chan error, 1)
	go func() { replDone <- runREPL(os.Stdin, sess) }()

	var replErr error
	if sess.srv != nil {
		// Serving: stay up past stdin EOF; quit or a signal drains.
		select {
		case sig := <-sigCh:
			fmt.Printf("sdid: %v: draining\n", sig)
		case replErr = <-replDone:
			if replErr == nil {
				fmt.Println("sdid: draining")
			}
		}
		d := sess.srv.Shutdown()
		fmt.Printf("sdid: drained in %v\n", d.Round(time.Millisecond))
	} else {
		select {
		case <-sigCh:
		case replErr = <-replDone:
		}
	}
	if replErr != nil {
		fmt.Fprintf(os.Stderr, "sdid: %v\n", replErr)
		os.Exit(1)
	}
}

// checkFlags rejects flag combinations that contradict each other. -queue
// with -listen would put per-subscriber broker queues in front of the
// server's per-connection queues, while netbroker.Serve needs a broker that
// delivers synchronously.
func checkFlags(listen, connect string, queue int) error {
	if listen != "" && connect != "" {
		return fmt.Errorf("-listen and -connect are mutually exclusive")
	}
	if listen != "" && queue > 0 {
		return fmt.Errorf("-queue and -listen are mutually exclusive: -listen connections have their own queues (-netqueue)")
	}
	return nil
}

// runConnect drives the REPL against a remote broker; SIGINT/SIGTERM (or
// quit) closes the client cleanly.
func runConnect(addr string, sigCh chan os.Signal) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dialCtx, dcancel := context.WithTimeout(ctx, 10*time.Second)
	cl, err := netbroker.Dial(dialCtx, addr, netbroker.ClientOptions{})
	dcancel()
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("sdid: connected to %s (%d attributes)\n", addr, len(cl.Schema()))

	replDone := make(chan error, 1)
	go func() { replDone <- runREPL(os.Stdin, &remoteSession{ctx: ctx, cl: cl}) }()
	select {
	case sig := <-sigCh:
		fmt.Printf("sdid: %v: closing\n", sig)
		return nil
	case err := <-replDone:
		return err
	}
}
