package accluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accluster/internal/pubsub"
	"accluster/internal/telemetry"
)

// telemetryRects builds a small deterministic object set.
func telemetryRects(n, dims int, rng *rand.Rand) []Rect {
	out := make([]Rect, n)
	for i := range out {
		r := NewRect(dims)
		for d := 0; d < dims; d++ {
			lo := rng.Float32() * 0.9
			r.Min[d], r.Max[d] = lo, lo+0.05
		}
		out[i] = r
	}
	return out
}

// TestTelemetryFiveSubsystems is the acceptance check for the flight
// recorder: one shared recorder attached to every subsystem — adaptive core,
// sharded fan-out, disk engine with region cache, pubsub broker, Go runtime
// — must produce a ring dump whose decoded per-second rows carry live gauges
// from all five.
func TestTelemetryFiveSubsystems(t *testing.T) {
	tel, err := NewTelemetry(WithTelemetryInterval(time.Hour)) // sampled manually
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	rng := rand.New(rand.NewSource(7))
	const dims, n = 4, 400
	rects := telemetryRects(n, dims, rng)

	a, err := NewAdaptive(dims, WithTelemetry(tel), WithReorgEvery(10))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sh, err := NewSharded(dims, WithTelemetry(tel), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i, r := range rects {
		if err := a.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
		if err := sh.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
	}
	// Disk engine over a checkpoint of the adaptive index.
	path := filepath.Join(t.TempDir(), "db.ac")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dk, err := OpenDisk(path, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	defer dk.Close()
	// Pubsub broker as the fifth subsystem.
	b, err := pubsub.NewBroker(pubsub.Schema{
		{Name: "x", Min: 0, Max: 1}, {Name: "y", Min: 0, Max: 1},
	}, pubsub.Options{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tel.rec.Register(b.TelemetrySource())
	if _, err := b.SubscribeFunc(pubsub.Subscription{"x": {Lo: 0, Hi: 1}},
		func(sub uint32, ev pubsub.Event) {}); err != nil {
		t.Fatal(err)
	}

	// Drive every subsystem, sampling as gauges move.
	q := MustRect([]float32{0.1, 0.1, 0.1, 0.1}, []float32{0.6, 0.6, 0.6, 0.6})
	var ids []uint32
	for i := 0; i < 30; i++ {
		if ids, err = a.SearchIDsAppend(ids[:0], q, Intersects); err != nil {
			t.Fatal(err)
		}
		if ids, err = sh.SearchIDsAppend(ids[:0], q, Intersects); err != nil {
			t.Fatal(err)
		}
		if ids, err = dk.SearchIDsAppend(ids[:0], q, Intersects); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Publish(pubsub.Event{"x": pubsub.Value(0.5), "y": pubsub.Value(0.5)}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			tel.Sample()
		}
	}
	// Queued delivery is asynchronous; wait for the deliverer to drain before
	// the final sample so pubsub.delivered is non-zero in the last row.
	for i := 0; i < 1000 && b.Stats().Delivered < 30; i++ {
		time.Sleep(time.Millisecond)
	}
	tel.Sample()

	var buf bytes.Buffer
	if err := tel.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := telemetry.ReadDump(&buf)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if len(d.Segments) == 0 {
		t.Fatal("dump has no segments")
	}
	last := d.Segments[len(d.Segments)-1]
	if len(last.Rows) == 0 {
		t.Fatal("last segment has no rows")
	}
	// One representative gauge per subsystem, all expected non-zero in the
	// final row.
	wantPositive := []string{
		"runtime.goroutines",      // Go runtime
		"adaptive.objects",        // core index: object count
		"adaptive.queries",        // cost.SyncMeter counters
		"adaptive.epoch",          // reorg epoch accessor
		"sharded.shard0_objects",  // per-shard counts
		"sharded.shard1_clusters", // per-shard counts
		"disk.queries",            // disk engine meter
		"disk.cache_entries",      // blockcache residency
		"pubsub.subscriptions",    // broker
		"pubsub.delivered",        // per-subscriber delivery counters
	}
	final := last.Rows[len(last.Rows)-1]
	for _, col := range wantPositive {
		idx := -1
		for i, c := range last.Cols {
			if c == col {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("column %q missing from dump schema %v", col, last.Cols)
			continue
		}
		if final[idx] <= 0 {
			t.Errorf("gauge %q = %d in final sample, want > 0", col, final[idx])
		}
	}
	// Query latency histograms from all three engines must be present and
	// populated.
	hists := map[string]bool{}
	for _, h := range d.Hists {
		hists[h.Name] = h.Count() > 0
	}
	for _, name := range []string{"adaptive.search_ns", "sharded.search_ns", "disk.search_ns"} {
		if !hists[name] {
			t.Errorf("histogram %q missing or empty (have %v)", name, hists)
		}
	}
}

func TestTelemetryEndpointOnEngine(t *testing.T) {
	a, err := NewAdaptive(2, WithTelemetryAddr("127.0.0.1:0"), WithTelemetryInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := a.TelemetryAddr()
	if addr == "" {
		t.Fatal("engine with WithTelemetryAddr has no bound address")
	}
	for i := 0; i < 50; i++ {
		if err := a.Insert(uint32(i), MustRect([]float32{0.1, 0.1}, []float32{0.2, 0.2})); err != nil {
			t.Fatal(err)
		}
	}
	q := MustRect([]float32{0, 0}, []float32{1, 1})
	if _, err := a.SearchIDs(q, Intersects); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/telemetry")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Samples int64            `json:"samples"`
			Gauges  map[string]int64 `json:"gauges"`
			Hists   []struct {
				Name  string `json:"name"`
				Count uint64 `json:"count"`
			} `json:"hists"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.Samples > 0 && body.Gauges["adaptive.objects"] == 50 {
			if len(body.Hists) != 1 || body.Hists[0].Name != "adaptive.search_ns" || body.Hists[0].Count == 0 {
				t.Fatalf("hists = %+v, want populated adaptive.search_ns", body.Hists)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint never showed the live gauges: %+v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close must tear the endpoint down.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/telemetry"); err == nil {
		t.Fatal("endpoint still serving after engine Close")
	}
}

func TestTelemetryOptionValidation(t *testing.T) {
	if _, err := NewAdaptive(2, WithTelemetry(nil)); err == nil {
		t.Error("nil telemetry accepted")
	}
	if _, err := NewTelemetry(WithTelemetryRing(0)); err == nil {
		t.Error("zero ring accepted")
	}
	if _, err := NewTelemetry(WithTelemetryInterval(0)); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewAdaptive(2, WithTelemetryAddr("")); err == nil {
		t.Error("empty telemetry address accepted")
	}
	tel, err := NewTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if _, err := NewAdaptive(2, WithTelemetry(tel), WithTelemetryAddr(":0")); err == nil {
		t.Error("WithTelemetry + WithTelemetryAddr accepted together")
	}
}

// TestTelemetrySamplerVsMutations is the -race stress of the satellite: the
// sampler reads every gauge source flat out while the engines mutate,
// search, and reorganize concurrently.
func TestTelemetrySamplerVsMutations(t *testing.T) {
	tel, err := NewTelemetry(WithTelemetryInterval(200 * time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	const dims = 3
	a, err := NewAdaptive(dims, WithTelemetry(tel), WithReorgEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sh, err := NewSharded(dims, WithTelemetry(tel), WithShards(2), WithReorgEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	rng := rand.New(rand.NewSource(11))
	for i, r := range telemetryRects(200, dims, rng) {
		if err := a.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
		if err := sh.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	q := MustRect([]float32{0.2, 0.2, 0.2}, []float32{0.7, 0.7, 0.7})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) { // searcher
			defer wg.Done()
			var ids []uint32
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if ids, err = a.SearchIDsAppend(ids[:0], q, Intersects); err != nil {
					t.Errorf("adaptive search: %v", err)
					return
				}
				if ids, err = sh.SearchIDsAppend(ids[:0], q, Intersects); err != nil {
					t.Errorf("sharded search: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() { // mutator
		defer wg.Done()
		r := rand.New(rand.NewSource(23))
		next := uint32(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rect := telemetryRects(1, dims, r)[0]
			if err := a.Insert(next, rect); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if err := sh.Insert(next, rect); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if next%3 == 0 {
				a.Delete(next - 2)
				sh.Delete(next - 2)
			}
			next++
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if tel.rec.Samples() == 0 {
		t.Fatal("sampler captured nothing during the stress")
	}
	var buf bytes.Buffer
	if err := tel.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ReadDump(&buf); err != nil {
		t.Fatalf("post-stress dump does not decode: %v", err)
	}
}

// TestTelemetryDuplicateEngineNames checks that two engines of the same kind
// sharing a recorder get distinct sources and histograms.
func TestTelemetryDuplicateEngineNames(t *testing.T) {
	tel, err := NewTelemetry(WithTelemetryInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	var engines []*Adaptive
	for i := 0; i < 2; i++ {
		a, err := NewAdaptive(2, WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		engines = append(engines, a)
	}
	for i, a := range engines {
		for j := 0; j <= i; j++ { // engine 0: 1 query, engine 1: 2 queries
			if _, err := a.SearchIDs(MustRect([]float32{0, 0}, []float32{1, 1}), Intersects); err != nil {
				t.Fatal(err)
			}
		}
	}
	tel.Sample()
	var buf bytes.Buffer
	if err := tel.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := telemetry.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cols := d.Segments[len(d.Segments)-1].Cols
	hasCol := func(name string) bool {
		for _, c := range cols {
			if c == name {
				return true
			}
		}
		return false
	}
	if !hasCol("adaptive.queries") || !hasCol("adaptive#2.queries") {
		t.Fatalf("expected adaptive and adaptive#2 sources, got %v", cols)
	}
	counts := map[string]uint64{}
	for _, h := range d.Hists {
		counts[h.Name] = h.Count()
	}
	if counts["adaptive.search_ns"] != 1 || counts["adaptive#2.search_ns"] != 2 {
		t.Fatalf("histograms not per-engine: %v", counts)
	}
}

// TestTelemetryZeroAllocSearch pins the zero-allocation guarantee of the
// warm query path with the flight recorder attached: the latency histogram
// record is one atomic increment and one atomic add, so an instrumented
// SearchIDsAppend into a reused buffer must still allocate nothing once the
// clustering is quiescent (reorganization disabled for the measurement).
func TestTelemetryZeroAllocSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tel, err := NewTelemetry(WithTelemetryInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	a, err := NewAdaptive(4, WithTelemetry(tel), WithReorgEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rng := rand.New(rand.NewSource(3))
	for i, r := range telemetryRects(2000, 4, rng) {
		if err := a.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
	}
	q := MustRect([]float32{0.2, 0.2, 0.2, 0.2}, []float32{0.4, 0.4, 0.4, 0.4})
	dst := make([]uint32, 0, 4096)
	for i := 0; i < 50; i++ { // warm the append buffer and any pools
		if dst, err = a.SearchIDsAppend(dst[:0], q, Intersects); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, err = a.SearchIDsAppend(dst[:0], q, Intersects)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("instrumented warm search allocates %.1f/op, want 0", allocs)
	}
	if h := tel.rec.Histograms(); len(h) != 1 || h[0].Count() == 0 {
		t.Fatalf("latency histogram not recording: %+v", h)
	}
}
