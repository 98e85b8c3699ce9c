package main

import (
	"context"
	"net"
	"strings"
	"time"

	"accluster/internal/netbroker"
	"testing"

	"accluster/internal/pubsub"
)

func TestParseRange(t *testing.T) {
	r, err := parseRange("400:700")
	if err != nil || r.Lo != 400 || r.Hi != 700 {
		t.Fatalf("parseRange(400:700) = %+v, %v", r, err)
	}
	r, err = parseRange("2")
	if err != nil || r != pubsub.Value(2) {
		t.Fatalf("parseRange(2) = %+v, %v", r, err)
	}
	if _, err := parseRange("abc"); err == nil {
		t.Error("bad lo must fail")
	}
	if _, err := parseRange("1:xyz"); err == nil {
		t.Error("bad hi must fail")
	}
}

func TestParseRanges(t *testing.T) {
	got, err := parseRanges([]string{"price=400:700", "baths=2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["price"].Hi != 700 || got["baths"] != pubsub.Value(2) {
		t.Fatalf("parseRanges: %+v", got)
	}
	if _, err := parseRanges([]string{"price"}); err == nil {
		t.Error("missing '=' must fail")
	}
	if _, err := parseRanges([]string{"price=a:b"}); err == nil {
		t.Error("bad range must fail")
	}
	if got, err := parseRanges(nil); err != nil || len(got) != 0 {
		t.Error("empty args must parse to empty map")
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		listen, connect string
		queue           int
		ok              bool
	}{
		{"", "", 0, true},
		{"", "", 8, true},
		{"127.0.0.1:7070", "", 0, true},
		{"", "127.0.0.1:7070", 0, true},
		{"127.0.0.1:7070", "127.0.0.1:7071", 0, false},
		{"127.0.0.1:7070", "", 8, false},
	} {
		if err := checkFlags(tc.listen, tc.connect, tc.queue); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %q, %d) = %v, want ok=%v", tc.listen, tc.connect, tc.queue, err, tc.ok)
		}
	}
}

// TestREPLLocalAndRemote drives the same script through a local session
// serving over netbroker and through a remote session connected to it.
func TestREPLLocalAndRemote(t *testing.T) {
	schema := pubsub.Schema{
		{Name: "price", Min: 0, Max: 5000},
		{Name: "rooms", Min: 1, Max: 10},
	}
	broker, err := pubsub.NewBroker(schema, pubsub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netbroker.Serve(broker, ln, netbroker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := &localSession{broker: broker, srv: srv}
	script := "sub price=400:700\npub price=550 rooms=4\nstats\nunsub 0\nquit\n"
	if err := runREPL(strings.NewReader(script), local); err != nil {
		t.Fatalf("local repl: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := netbroker.Dial(ctx, ln.Addr().String(), netbroker.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	remote := &remoteSession{ctx: ctx, cl: cl}
	id, err := remote.subscribe(map[string]pubsub.Range{"price": {Lo: 0, Hi: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if line, err := remote.publish(map[string]pubsub.Range{"price": pubsub.Value(500), "rooms": pubsub.Value(3)}); err != nil || !strings.Contains(line, "matched 1") {
		t.Fatalf("remote publish: %q, %v", line, err)
	}
	if existed, err := remote.unsubscribe(id); err != nil || !existed {
		t.Fatalf("remote unsubscribe: %v, %v", existed, err)
	}
	if s := remote.stats(); !strings.Contains(s, "connected=true") {
		t.Fatalf("remote stats: %q", s)
	}
	if s := local.stats(); !strings.Contains(s, "net: conns=") {
		t.Fatalf("local stats missing net line: %q", s)
	}
	if err := runREPL(strings.NewReader("pub price=100 rooms=2\nquit\n"), remote); err != nil {
		t.Fatalf("remote repl: %v", err)
	}
}
