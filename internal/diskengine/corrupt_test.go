package diskengine

import (
	"errors"
	"testing"

	"accluster/internal/geom"
	"accluster/internal/store"
)

// TestOpenCorruptHeaderClassified pins the error taxonomy on the direct
// disk query path: damage in the header or directory — the only parts Open
// touches — must fail with an error wrapping store.ErrCorrupt, so callers
// can distinguish bit-rot from transient I/O trouble.
func TestOpenCorruptHeaderClassified(t *testing.T) {
	_, dev := buildCheckpoint(t, 3, 400)
	// Sweep the header and the start of the directory; the clean open is
	// validated by every other test in the package.
	for off := int64(0); off < 96; off += 7 {
		if err := dev.Corrupt(off); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dev)
		if uerr := dev.Corrupt(off); uerr != nil {
			t.Fatal(uerr)
		}
		if err == nil {
			t.Fatalf("open with flipped byte %d succeeded", off)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("flip at %d: error not classified as ErrCorrupt: %v", off, err)
		}
	}
	// And the image is pristine again after undoing the flips.
	if _, err := Open(dev); err != nil {
		t.Fatalf("restored image fails to open: %v", err)
	}
}

// TestQueryRegionRotClassified pins read-path verification on the uncached
// engine: a region rotted after open is caught by the per-region checksum
// when a query explores it, and the error is classified as ErrCorrupt.
func TestQueryRegionRotClassified(t *testing.T) {
	_, dev := buildCheckpoint(t, 2, 600)
	eng, err := OpenConfig(dev, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	size, _ := dev.Size()
	// Rot a byte late in the file — inside some cluster region.
	if err := dev.Corrupt(size - 64); err != nil {
		t.Fatal(err)
	}
	// A full-space query explores every cluster and must hit the rot.
	full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	err = eng.Search(full, geom.Intersects, func(uint32) bool { return true })
	if err == nil {
		t.Fatal("query over rotted region succeeded")
	}
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("rot error not classified: %v", err)
	}
}

// TestReadErrorReturnsNoPartialAnswers pins the error contract of the
// answer-returning methods: a query that reads a rotted region fails with
// ErrCorrupt and hands back no partial answer — SearchIDsBatch leaves dst
// reset, SearchIDsAppend returns dst at its entry length, Count returns 0 —
// even though the regions read before the rotted one qualified. With the
// cache and coalescing off, every region is its own read, so the rotted last
// region is reached after the others were verified.
func TestReadErrorReturnsNoPartialAnswers(t *testing.T) {
	_, dev := buildCheckpoint(t, 2, 3000)
	eng, err := OpenConfig(dev, Config{CacheBytes: -1, ReadaheadGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	size, _ := dev.Size()
	if err := dev.Corrupt(size - 64); err != nil {
		t.Fatal(err)
	}
	full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	emitted := 0
	err = eng.Search(full, geom.Intersects, func(uint32) bool { emitted++; return true })
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Search: %v, want ErrCorrupt", err)
	}
	if emitted == 0 {
		t.Fatal("no region before the rotted one qualified; the case tests nothing")
	}

	var batch geom.IDBatch
	batch.IDs = append(batch.IDs, 42)
	if err := eng.SearchIDsBatch(&batch, []geom.Rect{full, full}, geom.Intersects); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("SearchIDsBatch: %v, want ErrCorrupt", err)
	}
	if batch.Queries() != 2 || len(batch.IDs) != 0 || len(batch.Query(0)) != 0 || len(batch.Query(1)) != 0 {
		t.Fatalf("SearchIDsBatch left %d ids over %d queries, want a reset batch of 2", len(batch.IDs), batch.Queries())
	}

	dst := []uint32{7, 8, 9}
	got, err := eng.SearchIDsAppend(dst, full, geom.Intersects)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("SearchIDsAppend: %v, want ErrCorrupt", err)
	}
	if len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("SearchIDsAppend returned %d ids, want dst's 3", len(got))
	}
	if ids, err := eng.SearchIDs(full, geom.Intersects); !errors.Is(err, store.ErrCorrupt) || len(ids) != 0 {
		t.Fatalf("SearchIDs: %d ids, %v; want none and ErrCorrupt", len(ids), err)
	}

	if n, err := eng.Count(full, geom.Intersects); !errors.Is(err, store.ErrCorrupt) || n != 0 {
		t.Fatalf("Count: %d, %v; want 0 and ErrCorrupt", n, err)
	}
}
