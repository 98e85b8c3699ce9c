package accluster

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// buildDiskCheckpoint builds a converged adaptive index, checkpoints it and
// returns the in-memory index plus the file path.
func buildDiskCheckpoint(t *testing.T, dims, n int) (*Adaptive, string) {
	t.Helper()
	ix, err := NewAdaptive(dims, WithReorgEvery(40))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	r := NewRect(dims)
	for id := uint32(0); id < uint32(n); id++ {
		for d := 0; d < dims; d++ {
			size := rng.Float32() * 0.3
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	q := NewRect(dims)
	for i := 0; i < 300; i++ {
		for d := 0; d < dims; d++ {
			size := rng.Float32() * 0.2
			lo := rng.Float32() * (1 - size)
			q.Min[d], q.Max[d] = lo, lo+size
		}
		if _, err := ix.Count(q, Intersects); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "disk.acdb")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return ix, path
}

func TestOpenDiskMatchesAdaptive(t *testing.T) {
	ix, path := buildDiskCheckpoint(t, 5, 4000)
	d, err := OpenDisk(path, WithDiskCache(8<<20), WithReadahead(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != ix.Len() || d.Dims() != 5 || d.Clusters() != ix.Clusters() {
		t.Fatalf("metadata: len=%d dims=%d clusters=%d", d.Len(), d.Dims(), d.Clusters())
	}
	rng := rand.New(rand.NewSource(10))
	q := NewRect(5)
	var buf []uint32
	for qi := 0; qi < 40; qi++ {
		for dim := 0; dim < 5; dim++ {
			size := rng.Float32() * 0.4
			lo := rng.Float32() * (1 - size)
			q.Min[dim], q.Max[dim] = lo, lo+size
		}
		rel := Relation(qi % 3)
		want, err := ix.SearchIDs(q, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.SearchIDsAppend(buf[:0], q, rel)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d rel %v: %d results, want %d", qi, rel, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d rel %v: id mismatch", qi, rel)
			}
		}
		n, err := d.Count(q, rel)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("query %d rel %v: count %d want %d", qi, rel, n, len(want))
		}
	}
	st := d.Stats()
	if st.Queries == 0 || st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("stats missing cache accounting: %+v", st)
	}
	cs := d.CacheStats()
	if cs.Hits != st.CacheHits || cs.Entries == 0 || cs.BudgetBytes != 8<<20 {
		t.Fatalf("cache stats: %+v vs meter hits %d", cs, st.CacheHits)
	}
}

func TestOpenDiskNoCacheOption(t *testing.T) {
	_, path := buildDiskCheckpoint(t, 3, 1500)
	d, err := OpenDisk(path, WithDiskCache(0), WithReadahead(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	full := MustRect([]float32{0, 0, 0}, []float32{1, 1, 1})
	for pass := 0; pass < 2; pass++ {
		if _, err := d.Count(full, Intersects); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache must not count hits/misses: %+v", st)
	}
	// Without coalescing every exploration is its own seek.
	if st.Seeks != st.PartitionsExplored {
		t.Fatalf("readahead disabled: seeks %d != explorations %d", st.Seeks, st.PartitionsExplored)
	}
	if cs := d.CacheStats(); cs.BudgetBytes != 0 || cs.Entries != 0 {
		t.Fatalf("cache must be off: %+v", cs)
	}
}

func TestOpenDiskRejectsInvalidOptions(t *testing.T) {
	_, path := buildDiskCheckpoint(t, 3, 500)
	if _, err := OpenDisk(path, WithDiskCache(-1)); err == nil {
		t.Error("negative cache budget accepted")
	}
	if _, err := OpenDisk(path, WithReadahead(-1)); err == nil {
		t.Error("negative readahead accepted")
	}
	if _, err := OpenDisk(filepath.Join(t.TempDir(), "absent.acdb")); err == nil {
		t.Error("opening an absent checkpoint must fail")
	}
}

// TestOpenDiskMissingPath pins the read-only open: a missing path is a
// not-exist error, not a corrupt checkpoint, and no file is created as a
// side effect.
func TestOpenDiskMissingPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.acdb")
	_, err := OpenDisk(path)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenDisk on a missing path: %v, want a not-exist error", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("a missing path reported as corrupt: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("a failed open created the file")
	}
}
