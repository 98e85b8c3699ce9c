package main

import "testing"

func TestSelfTimes(t *testing.T) {
	// One operation: a root of 100 with children read (40) and publish (10);
	// read has a store child of 15. A lockstep replica of 20 attributed to
	// publish lies outside the root, as sdi-churn's twin spans do.
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100, WStart: 0, WEnd: 200},
		{Name: "read", Parent: 0, Start: 5, End: 45, WStart: 10, WEnd: 90},
		{Name: "store", Parent: 1, Start: 20, End: 35, WStart: 40, WEnd: 70},
		{Name: "publish", Parent: 0, Start: 50, End: 80, WStart: 100, WEnd: 160},
		{Name: "replica", Parent: 3, Start: 120, End: 140, WStart: 300, WEnd: 340},
		// A second operation's root, to check aggregation by name.
		{Name: "op", Op: 1, Parent: -1, Start: 200, End: 210, WStart: 400, WEnd: 420},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op":      {Calls: 2, Total: 110, Self: 110 - 40 - 30, WallTotal: 220, WallSelf: 220 - 80 - 60},
		"read":    {Calls: 1, Total: 40, Self: 25, WallTotal: 80, WallSelf: 50},
		"store":   {Calls: 1, Total: 15, Self: 15, WallTotal: 30, WallSelf: 30},
		"publish": {Calls: 1, Total: 30, Self: 10, WallTotal: 60, WallSelf: 20},
		"replica": {Calls: 1, Total: 20, Self: 20, WallTotal: 40, WallSelf: 40},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	var layers int64
	for name, w := range want {
		g := got[name]
		if g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
		if name != "op" {
			layers += w.Self
		}
	}
	// Self times partition the roots' totals, the out-of-interval replica
	// included: it moves its time out of its parent's self time.
	if total := layers + want["op"].Self; total != want["op"].Total {
		t.Errorf("self times sum to %d, want %d", total, want["op"].Total)
	}
}

func TestTracerNestsAndCloses(t *testing.T) {
	var tr tracer
	root := tr.begin("op", 7, -1)
	child := tr.begin("core.read", 7, root)
	sink += spin(1e6)
	tr.end(child)
	tr.end(root)
	r, c := tr.spans[root], tr.spans[child]
	if c.Parent != root || r.Parent != -1 || c.Op != 7 {
		t.Fatalf("spans %+v do not record the nesting", tr.spans)
	}
	if !(r.Start <= c.Start && c.End <= r.End && c.Start < c.End) {
		t.Fatalf("child CPU interval %d..%d not inside root %d..%d", c.Start, c.End, r.Start, r.End)
	}
	if !(r.WStart <= c.WStart && c.WEnd <= r.WEnd) {
		t.Fatalf("child wall interval %d..%d not inside root %d..%d", c.WStart, c.WEnd, r.WStart, r.WEnd)
	}
}
