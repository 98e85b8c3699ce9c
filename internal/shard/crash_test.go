package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"accluster/internal/core"
	"accluster/internal/faultio"
	"accluster/internal/geom"
	"accluster/internal/store"
)

// crashEngine builds a single-worker engine (deterministic sequential
// segment writes) holding n random objects.
func crashEngine(t *testing.T, shards, n int, seed int64) (*Engine, []uint32, []geom.Rect) {
	t.Helper()
	e, err := New(Config{Shards: shards, Workers: 1, Core: core.Config{Dims: 2, ReorgEvery: 25}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint32, n)
	rects := make([]geom.Rect, n)
	for i := 0; i < n; i++ {
		r := geom.NewRect(2)
		for d := 0; d < 2; d++ {
			size := rng.Float32() * 0.2
			lo := rng.Float32() * (1 - size)
			r.Min[d], r.Max[d] = lo, lo+size
		}
		ids[i], rects[i] = uint32(i), r
		if err := e.Insert(uint32(i), r); err != nil {
			t.Fatal(err)
		}
	}
	return e, ids, rects
}

// TestSaveDirPowerFailLoop is the generational crash harness: with an old
// checkpoint committed, attempt a new save while crashing at every
// injectable I/O operation in turn. Whatever survives the crash must load
// as exactly the old state or exactly the new one — never a mix of
// generations, never an unloadable directory.
func TestSaveDirPowerFailLoop(t *testing.T) {
	eOld, _, _ := crashEngine(t, 4, 260, 31)
	eNew, _, _ := crashEngine(t, 4, 410, 47)

	base := faultio.NewMemFS()
	if err := eOld.SaveDirFS(base, "ckpt"); err != nil {
		t.Fatal(err)
	}
	oldGen := eOld.Generation()

	probe := faultio.NewSchedule(1)
	if err := eNew.SaveDirFS(faultio.WrapFS(base.Clone(), probe), "ckpt"); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("implausibly few ops in a 4-shard save: %d", total)
	}

	oldLen, newLen := eOld.Len(), eNew.Len()
	for k := int64(1); k <= total; k++ {
		s := faultio.NewSchedule(1000 + k)
		s.SetFault(k, faultio.Crash)
		fsys := base.Clone()
		if err := eNew.SaveDirFS(faultio.WrapFS(fsys, s), "ckpt"); err == nil {
			t.Fatalf("crash at op %d/%d: save reported success", k, total)
		}
		crashed := fsys.Crash()
		back, err := LoadDirFS(crashed, "ckpt", Config{Workers: 1})
		if err != nil {
			t.Fatalf("crash at op %d/%d: no loadable checkpoint: %v", k, total, err)
		}
		got := back.Len()
		switch {
		case got == oldLen && back.Generation() == oldGen:
		case got == newLen && back.Generation() == oldGen+1:
		default:
			t.Fatalf("crash at op %d/%d: loaded %d objects at generation %d, want %d@%d or %d@%d",
				k, total, got, back.Generation(), oldLen, oldGen, newLen, oldGen+1)
		}
		if err := back.CheckInvariants(); err != nil {
			t.Fatalf("crash at op %d/%d: survivor invalid: %v", k, total, err)
		}
	}
}

// TestSaveDirCrashThenResaveRecovers pins that a directory littered by a
// crashed save (uncommitted higher-generation segments) accepts a clean
// follow-up save that commits and garbage-collects all residue.
func TestSaveDirCrashThenResaveRecovers(t *testing.T) {
	e, _, _ := crashEngine(t, 2, 180, 7)
	base := faultio.NewMemFS()
	if err := e.SaveDirFS(base, "ckpt"); err != nil {
		t.Fatal(err)
	}
	// Crash a second save halfway.
	s := faultio.NewSchedule(5)
	s.SetFault(9, faultio.Crash)
	if err := e.SaveDirFS(faultio.WrapFS(base, s), "ckpt"); err == nil {
		t.Fatal("crashed save reported success")
	}
	fsys := base.Crash()
	// A clean save on the crashed remains must fully commit.
	if err := e.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(fsys, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{manifestName: true}
	for i := 0; i < m.shards; i++ {
		want[segmentName(i, m.gen)] = true
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("residue %q survived the follow-up save (manifest gen %d)", n, m.gen)
		}
	}
	if len(names) != len(want) {
		t.Fatalf("directory has %d files, want %d", len(names), len(want))
	}
}

// TestSaveDirShrinkingShardCountGCsStaleSegments pins the stale-file
// satellite: re-saving a directory from an engine with fewer shards leaves
// no segments of the wider layout behind.
func TestSaveDirShrinkingShardCountGCsStaleSegments(t *testing.T) {
	wide, _, _ := crashEngine(t, 8, 300, 13)
	narrow, _, _ := crashEngine(t, 2, 120, 17)
	fsys := faultio.NewMemFS()
	if err := wide.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := narrow.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 { // MANIFEST + 2 segments
		t.Fatalf("after narrower re-save: %d files %v, want 3", len(names), names)
	}
	back, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.Shards() != 2 || back.Len() != narrow.Len() {
		t.Fatalf("reload: %d shards / %d objects, want 2 / %d", back.Shards(), back.Len(), narrow.Len())
	}
}

// TestSalvageOpenServesHealthyShards corrupts one segment and requires the
// salvage open to quarantine exactly that shard, serve the rest, and come
// back to full health through RestoreQuarantined.
func TestSalvageOpenServesHealthyShards(t *testing.T) {
	e, ids, rects := crashEngine(t, 4, 500, 3)
	fsys := faultio.NewMemFS()
	if err := e.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	victim := 2
	if err := fsys.Corrupt("ckpt/"+segmentName(victim, e.Generation()), 100); err != nil {
		t.Fatal(err)
	}

	// Without salvage: load refuses, and the error says corruption.
	if _, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("strict load err = %v, want ErrCorrupt", err)
	}

	// With salvage: the engine opens degraded.
	back, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	q := back.Quarantined()
	if len(q) != 1 || q[0].Shard != victim || !errors.Is(q[0].Err, store.ErrCorrupt) {
		t.Fatalf("quarantine = %+v, want shard %d with ErrCorrupt", q, victim)
	}
	if back.QuarantinedCount() != 1 {
		t.Fatalf("QuarantinedCount = %d", back.QuarantinedCount())
	}
	infos := back.ShardInfos()
	for i, in := range infos {
		if in.Quarantined != (i == victim) {
			t.Fatalf("shard %d Quarantined = %v", i, in.Quarantined)
		}
	}

	// The survivors answer: every loaded object routes to a healthy shard.
	wantHealthy := 0
	for _, id := range ids {
		if back.route(id) != victim {
			wantHealthy++
			if _, ok := back.Get(id); !ok {
				t.Fatalf("healthy object %d missing from salvaged engine", id)
			}
		}
	}
	if back.Len() != wantHealthy {
		t.Fatalf("salvaged engine has %d objects, want %d", back.Len(), wantHealthy)
	}

	// Restore from the authoritative object set and verify full recovery.
	if err := back.RestoreQuarantined(ids, rects); err != nil {
		t.Fatal(err)
	}
	if back.QuarantinedCount() != 0 {
		t.Fatal("quarantine not cleared after restore")
	}
	if back.Len() != len(ids) {
		t.Fatalf("restored engine has %d objects, want %d", back.Len(), len(ids))
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And the repaired state checkpoints + reloads cleanly.
	if err := back.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	again, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != len(ids) {
		t.Fatalf("re-saved repair reloads %d objects, want %d", again.Len(), len(ids))
	}
}

// TestSalvageAllShardsDamagedFails pins the floor: salvage refuses to open
// a checkpoint with zero loadable segments rather than fabricating an empty
// database.
func TestSalvageAllShardsDamagedFails(t *testing.T) {
	e, _, _ := crashEngine(t, 2, 100, 29)
	fsys := faultio.NewMemFS()
	if err := e.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fsys.Corrupt("ckpt/"+segmentName(i, e.Generation()), 50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1, Salvage: true}); err == nil {
		t.Fatal("salvage of a fully destroyed checkpoint succeeded")
	}
}

// TestLoadLegacyV1Layout pins backward compatibility: a directory in the
// pre-generational layout (version-1 manifest, un-tagged segment names)
// still loads, and the next save migrates it to the generational layout.
func TestLoadLegacyV1Layout(t *testing.T) {
	e, ids, _ := crashEngine(t, 2, 150, 41)
	fsys := faultio.NewMemFS()
	if err := fsys.MkdirAll("ckpt"); err != nil {
		t.Fatal(err)
	}
	// Write the legacy layout by hand: gen-0 segment names + v1 manifest.
	err := e.forEachShard(func(i int, s *Locked) error {
		f, err := fsys.Create(fmt.Sprintf("ckpt/shard-%04d.acdb", i))
		if err != nil {
			return err
		}
		defer f.Close()
		return store.Save(s.ix, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	man := make([]byte, manifestSizeV1)
	binary.LittleEndian.PutUint32(man[0:], manifestMagic)
	binary.LittleEndian.PutUint32(man[4:], 1)
	binary.LittleEndian.PutUint32(man[8:], 2)  // shards
	binary.LittleEndian.PutUint32(man[12:], 2) // dims
	binary.LittleEndian.PutUint32(man[16:], crc32.ChecksumIEEE(man[:16]))
	if err := store.WriteFileAtomic(fsys, "ckpt/MANIFEST", man); err != nil {
		t.Fatal(err)
	}

	back, err := LoadDirFS(fsys, "ckpt", Config{Workers: 1})
	if err != nil {
		t.Fatalf("legacy layout failed to load: %v", err)
	}
	if back.Len() != len(ids) || back.Generation() != 0 {
		t.Fatalf("legacy load: %d objects at generation %d, want %d at 0", back.Len(), back.Generation(), len(ids))
	}
	// The next save migrates to generation 1 and removes the legacy files.
	if err := back.SaveDirFS(fsys, "ckpt"); err != nil {
		t.Fatal(err)
	}
	if back.Generation() != 1 {
		t.Fatalf("post-migration generation = %d, want 1", back.Generation())
	}
	names, _ := fsys.ReadDir("ckpt")
	for _, n := range names {
		if _, g, ok := parseSegmentName(n); ok && g == 0 {
			t.Fatalf("legacy segment %q survived the migrating save", n)
		}
	}
}
