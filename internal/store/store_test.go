package store

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
)

func randomRect(rng *rand.Rand, dims int, maxSize float32) geom.Rect {
	r := geom.NewRect(dims)
	for d := 0; d < dims; d++ {
		size := rng.Float32() * maxSize
		lo := rng.Float32() * (1 - size)
		r.Min[d], r.Max[d] = lo, lo+size
	}
	return r
}

// buildIndex returns a clustered index with live statistics.
func buildIndex(t *testing.T, dims, n int) *core.Index {
	t.Helper()
	ix, err := core.New(core.Config{Dims: dims, ReorgEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for id := 0; id < n; id++ {
		if err := ix.Insert(uint32(id), randomRect(rng, dims, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		queryIDs(t, ix, randomRect(rng, dims, 0.2), geom.Intersects)
	}
	return ix
}

// queryIDs runs one query the way a single owner does — the read phase,
// then DrainStats, which applies the query's statistics record and takes one
// budgeted reorganization step — and returns its answer sorted.
func queryIDs(t *testing.T, ix *core.Index, q geom.Rect, rel geom.Relation) []uint32 {
	t.Helper()
	ids, err := ix.SearchIDsAppendRead(nil, q, rel)
	ix.DrainStats()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := buildIndex(t, 4, 2000)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dev, core.Config{Dims: 4, ReorgEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded %d objects, want %d", loaded.Len(), ix.Len())
	}
	if loaded.Clusters() != ix.Clusters() {
		t.Fatalf("loaded %d clusters, want %d", loaded.Clusters(), ix.Clusters())
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		q := randomRect(rng, 4, 0.4)
		rel := geom.Relation(i % 3)
		a, b := queryIDs(t, ix, q, rel), queryIDs(t, loaded, q, rel)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("query %d: result mismatch", i)
			}
		}
	}
}

func TestLoadAdoptsDims(t *testing.T) {
	ix := buildIndex(t, 3, 300)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dev, core.Config{}) // Dims 0: adopt from file
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dims() != 3 {
		t.Fatalf("adopted dims = %d", loaded.Dims())
	}
	if _, err := Load(dev, core.Config{Dims: 5}); err == nil {
		t.Error("dims mismatch must fail")
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spatial.acdb")
	ix := buildIndex(t, 5, 800)
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	loaded, err := Load(dev2, core.Config{Dims: 5})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 800 {
		t.Fatalf("loaded %d objects", loaded.Len())
	}
	if sz, err := dev2.Size(); err != nil || sz == 0 {
		t.Fatalf("file size: %d, %v", sz, err)
	}
}

func TestCheckpointOverwrite(t *testing.T) {
	// A second, smaller checkpoint must fully replace the first.
	ix := buildIndex(t, 3, 1500)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	big, _ := dev.Size()
	for id := uint32(0); id < 1400; id++ {
		ix.Delete(id)
	}
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	small, _ := dev.Size()
	if small >= big {
		t.Errorf("checkpoint did not shrink: %d -> %d", big, small)
	}
	loaded, err := Load(dev, core.Config{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 100 {
		t.Fatalf("loaded %d objects, want 100", loaded.Len())
	}
}

func TestStorageUtilization(t *testing.T) {
	// §6: at least 70% utilization. Our reservation is 25%, so live/cap
	// must be ≥ 70% for clusters of meaningful size.
	for _, n := range []int{1, 4, 10, 1000} {
		c := reserveSlots(n)
		util := float64(n) / float64(c)
		if n >= 4 && util < 0.70 {
			t.Errorf("n=%d: utilization %.2f below 70%%", n, util)
		}
		if c <= n {
			t.Errorf("n=%d: no reserved slots", n)
		}
	}
}

func TestCorruptionDetection(t *testing.T) {
	ix := buildIndex(t, 4, 600)
	size, _ := func() (int64, error) {
		dev := NewMemDevice()
		if err := Save(ix, dev); err != nil {
			t.Fatal(err)
		}
		return dev.Size()
	}()
	// Flip a byte at several strategic offsets: header, directory,
	// first region, last byte.
	offsets := []int64{0, 5, headerSize + 3, size / 2, size - 1}
	for _, off := range offsets {
		dev := NewMemDevice()
		if err := Save(ix, dev); err != nil {
			t.Fatal(err)
		}
		if err := dev.Corrupt(off); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dev, core.Config{Dims: 4}); err == nil {
			t.Errorf("corruption at offset %d went undetected", off)
		} else if _, ok := err.(*CorruptError); !ok {
			t.Errorf("offset %d: error %v is not a CorruptError", off, err)
		}
	}
}

func TestTruncatedFileDetection(t *testing.T) {
	ix := buildIndex(t, 4, 600)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	size, _ := dev.Size()
	// Simulate a crash mid-write: the tail is missing.
	if err := dev.Truncate(size / 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev, core.Config{Dims: 4}); err == nil {
		t.Error("truncated database went undetected")
	}
	// Empty device.
	if _, err := Load(NewMemDevice(), core.Config{Dims: 4}); err == nil {
		t.Error("empty device must fail to load")
	}
}

func TestMemDeviceEdgeCases(t *testing.T) {
	m := NewMemDevice()
	if _, err := m.ReadAt(make([]byte, 4), 0); err == nil {
		t.Error("read from empty device must fail")
	}
	if _, err := m.WriteAt([]byte{1, 2, 3}, -1); err == nil {
		t.Error("negative offset must fail")
	}
	if err := m.Truncate(-1); err == nil {
		t.Error("negative truncate must fail")
	}
	if err := m.Corrupt(0); err == nil {
		t.Error("corrupt on empty device must fail")
	}
	if _, err := m.WriteAt([]byte{1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := m.Size(); sz != 13 {
		t.Errorf("size = %d, want 13", sz)
	}
	if err := m.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if sz, _ := m.Size(); sz != 20 {
		t.Errorf("size after grow = %d", sz)
	}
	if err := m.Sync(); err != nil {
		t.Error("Sync must succeed")
	}
}

func TestRestoreValidation(t *testing.T) {
	if _, err := core.Restore(core.Config{Dims: 2}, nil); err == nil {
		t.Error("empty snapshot must fail")
	}
	ix := buildIndex(t, 2, 100)
	snap := ix.Snapshot()
	if len(snap) > 1 {
		// Break the parent ordering.
		snap[1].Parent = len(snap) + 5
		if _, err := core.Restore(core.Config{Dims: 2}, snap); err == nil {
			t.Error("invalid parent must fail")
		}
	}
	// Duplicate ids across clusters.
	snap = ix.Snapshot()
	if len(snap[0].IDs) >= 2 {
		snap[0].IDs[1] = snap[0].IDs[0]
		if _, err := core.Restore(core.Config{Dims: 2}, snap); err == nil {
			t.Error("duplicate ids must fail")
		}
	}
}
