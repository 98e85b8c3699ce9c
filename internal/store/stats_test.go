package store

// Version-2 format: the adaptive query statistics ride in a dedicated,
// checksummed block. These tests pin the warm round trip, the graceful cold
// load under a different division factor (the candidate enumeration the
// indicators index into depends on it), and corruption detection.

import (
	"math/rand"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
)

// buildQueried returns an index with materialized clusters and non-zero
// query statistics.
func buildQueried(t *testing.T) *core.Index {
	t.Helper()
	ix, err := core.New(core.Config{Dims: 3, ReorgEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	r := geom.NewRect(3)
	for id := uint32(0); id < 3000; id++ {
		for d := 0; d < 3; d++ {
			size := rng.Float32() * 0.1
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		if err := ix.Insert(id, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		base := rng.Float32() * 0.1
		q := geom.Rect{Min: []float32{base, base, base}, Max: []float32{base + 0.1, base + 0.1, base + 0.1}}
		queryIDs(t, ix, q, geom.Intersects)
	}
	if ix.Clusters() < 2 {
		t.Fatal("workload did not materialize clusters")
	}
	return ix
}

func TestSaveLoadCarriesStatistics(t *testing.T) {
	ix := buildQueried(t)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dev, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.StatsWindow() != ix.StatsWindow() {
		t.Fatalf("window: loaded %g, want %g", loaded.StatsWindow(), ix.StatsWindow())
	}
	if loaded.StatsWindow() == 0 {
		t.Fatal("saved index had an empty statistics window — test is vacuous")
	}
	want := ix.Snapshot()
	got := loaded.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("cluster count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Q != want[i].Q {
			t.Fatalf("cluster %d: loaded q %g, want %g", i, got[i].Q, want[i].Q)
		}
		if len(got[i].CandQ) != len(want[i].CandQ) {
			t.Fatalf("cluster %d: candidate count %d, want %d", i, len(got[i].CandQ), len(want[i].CandQ))
		}
		for k := range want[i].CandQ {
			if got[i].CandQ[k] != want[i].CandQ[k] {
				t.Fatalf("cluster %d candidate %d: %g vs %g", i, k, got[i].CandQ[k], want[i].CandQ[k])
			}
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOtherDivisionFactorRestoresCold(t *testing.T) {
	ix := buildQueried(t) // division factor 4 (default)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dev, core.Config{DivisionFactor: 8})
	if err != nil {
		t.Fatalf("a division-factor change must load (cold), got %v", err)
	}
	if loaded.StatsWindow() != 0 {
		t.Fatalf("window = %g after division-factor change, want 0 (statistics skipped)", loaded.StatsWindow())
	}
	if loaded.Len() != ix.Len() || loaded.Clusters() != ix.Clusters() {
		t.Fatalf("structure lost: %d objects / %d clusters, want %d / %d",
			loaded.Len(), loaded.Clusters(), ix.Len(), ix.Clusters())
	}
}

func TestLoadDetectsCorruptStatistics(t *testing.T) {
	ix := buildQueried(t)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the statistics block (just past the directory).
	h, err := readHeader(dev)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(h.size + h.dirLen + 3)
	b := make([]byte, 1)
	if _, err := dev.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := dev.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev, core.Config{}); err == nil {
		t.Fatal("corrupt statistics block not detected")
	}
}
