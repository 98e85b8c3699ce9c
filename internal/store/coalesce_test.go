package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// planCheckpoint saves a small clustered index and returns the device and
// directory for planner tests.
func planCheckpoint(t *testing.T, dims, n int) (*MemDevice, []DirEntry) {
	t.Helper()
	ix := buildIndex(t, dims, n)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	dir, _, err := ReadDirectory(dev)
	if err != nil {
		t.Fatal(err)
	}
	return dev, dir
}

// checkRuns verifies the planner's structural contract over any directory:
// every requested cluster is covered by exactly one run, fully inside the
// run's byte range, and the bytes of the run at the region's offset are
// identical to an individual region read.
func checkRuns(t *testing.T, dev Device, dir []DirEntry, clusters []int32, dims int, runs []ReadRun) {
	t.Helper()
	covered := 0
	for _, run := range runs {
		if run.N <= 0 || run.First != covered {
			t.Fatalf("runs misordered: %+v (covered %d)", run, covered)
		}
		covered += run.N
		buf := make([]byte, run.Bytes)
		if _, err := dev.ReadAt(buf, run.Offset); err != nil {
			t.Fatalf("run read: %v", err)
		}
		for k := 0; k < run.N; k++ {
			e := dir[clusters[run.First+k]]
			lo, hi := e.Offset-run.Offset, e.Offset-run.Offset+int64(e.RegionBytes(dims))
			if lo < 0 || hi > run.Bytes {
				t.Fatalf("region [%d,%d) outside run %+v", lo, hi, run)
			}
			direct := make([]byte, e.RegionBytes(dims))
			if _, err := dev.ReadAt(direct, e.Offset); err != nil {
				t.Fatalf("direct read: %v", err)
			}
			if !bytes.Equal(buf[lo:hi], direct) {
				t.Fatalf("coalesced bytes differ from individual read for cluster %d", clusters[run.First+k])
			}
		}
	}
	if covered != len(clusters) {
		t.Fatalf("runs cover %d of %d clusters", covered, len(clusters))
	}
}

func TestPlanReadRunsOnCheckpoint(t *testing.T) {
	dev, dir := planCheckpoint(t, 4, 3000)
	if len(dir) < 4 {
		t.Fatalf("need a multi-cluster checkpoint, got %d", len(dir))
	}
	all := make([]int32, len(dir))
	for i := range all {
		all[i] = int32(i)
	}
	// Regions are laid out back to back: selecting every cluster with any
	// non-negative gap must coalesce into exactly one run.
	runs := PlanReadRuns(dir, append([]int32(nil), all...), 4, 0, nil)
	if len(runs) != 1 || runs[0].N != len(dir) {
		t.Fatalf("adjacent regions must form one run: %+v", runs)
	}
	checkRuns(t, dev, dir, all, 4, runs)

	// Coalescing disabled: one run per cluster, still byte-identical.
	sorted := append([]int32(nil), all...)
	runs = PlanReadRuns(dir, sorted, 4, -1, nil)
	if len(runs) != len(dir) {
		t.Fatalf("disabled coalescing must not merge: %d runs for %d clusters", len(runs), len(dir))
	}
	checkRuns(t, dev, dir, sorted, 4, runs)

	// Random subsets at assorted gaps, including shuffled input order.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var subset []int32
		for i := range dir {
			if rng.Intn(3) == 0 {
				subset = append(subset, int32(i))
			}
		}
		if len(subset) == 0 {
			continue
		}
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		maxGap := int64(rng.Intn(3000)) - 1
		runs := PlanReadRuns(dir, subset, 4, maxGap, nil)
		checkRuns(t, dev, dir, subset, 4, runs)
		if maxGap >= 0 {
			// Gap bound respected: consecutive regions inside one run
			// never skip more than maxGap bytes.
			for _, run := range runs {
				for k := 1; k < run.N; k++ {
					prev := dir[subset[run.First+k-1]]
					cur := dir[subset[run.First+k]]
					if gap := cur.Offset - (prev.Offset + int64(prev.RegionBytes(4))); gap > maxGap {
						t.Fatalf("run bridges gap %d > maxGap %d", gap, maxGap)
					}
				}
			}
		}
	}
}

// FuzzPlanReadRuns synthesizes arbitrary directories (random offsets and
// capacities — including overlapping and duplicated regions, which a
// corrupt directory could present) over a random device image and checks
// the planner's contract: full coverage, in-run containment, and coalesced
// bytes identical to individual reads.
func FuzzPlanReadRuns(f *testing.F) {
	f.Add(int64(1), uint8(6), int64(64), uint8(2))
	f.Add(int64(2), uint8(1), int64(-1), uint8(1))
	f.Add(int64(3), uint8(12), int64(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nClusters uint8, maxGap int64, dims uint8) {
		if nClusters == 0 || nClusters > 32 {
			t.Skip()
		}
		d := int(dims%4) + 1
		rng := rand.New(rand.NewSource(seed))
		if maxGap > 1<<20 {
			maxGap = maxGap % (1 << 20)
		}
		// Synthesize a directory over a shared byte image. Offsets are
		// random (sometimes overlapping), capacities small.
		img := make([]byte, 1<<16)
		rng.Read(img)
		dev := NewMemDevice()
		if _, err := dev.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		dir := make([]DirEntry, nClusters)
		for i := range dir {
			capacity := rng.Intn(40) + 1
			size := regionSize(capacity, d)
			off := rng.Int63n(int64(len(img) - size))
			dir[i] = DirEntry{Count: rng.Intn(capacity + 1), Capacity: capacity, Offset: off}
		}
		var clusters []int32
		for i := range dir {
			if rng.Intn(2) == 0 {
				clusters = append(clusters, int32(i))
			}
		}
		if len(clusters) == 0 {
			clusters = []int32{0}
		}
		runs := PlanReadRuns(dir, clusters, d, maxGap, nil)
		checkRuns(t, dev, dir, clusters, d, runs)
	})
}

func TestReadRegionIntoReusesBuffers(t *testing.T) {
	dev, dir := planCheckpoint(t, 3, 1500)
	var ids []uint32
	var data []float32
	for _, e := range dir {
		wantIDs, wantData, err := ReadRegion(dev, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids, data, err = ReadRegionInto(dev, e, 3, ids[:0], data[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(wantIDs) || len(data) != len(wantData) {
			t.Fatalf("shape mismatch: %d/%d ids, %d/%d data", len(ids), len(wantIDs), len(data), len(wantData))
		}
		for i := range ids {
			if ids[i] != wantIDs[i] {
				t.Fatal("ids differ from ReadRegion")
			}
		}
		for i := range data {
			if data[i] != wantData[i] {
				t.Fatal("data differs from ReadRegion")
			}
		}
	}
	// Steady state: with warm buffers and a warm pool the read allocates
	// nothing.
	e := dir[0]
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		ids, data, err = ReadRegionInto(dev, e, 3, ids[:0], data[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadRegionInto allocates %.1f per call, want 0", allocs)
	}
}

// TestDecodeRegionColumnsMatchesReadRegion checks the column decoder against
// the row-major ReadRegion at several dimensionalities, on clusters whose
// member counts leave a partial 8-row band (the transposition kernel's
// scalar edge), and that it writes nothing past the column slab.
func TestDecodeRegionColumnsMatchesReadRegion(t *testing.T) {
	for _, dims := range []int{1, 3, 4, 16} {
		dev, dir := planCheckpoint(t, dims, 2003)
		ragged := 0
		for _, e := range dir {
			if e.Count > 8 && e.Count%8 != 0 {
				ragged++
			}
			img := make([]byte, e.RegionBytes(dims))
			if _, err := dev.ReadAt(img, e.Offset); err != nil {
				t.Fatal(err)
			}
			ids := make([]uint32, e.Count)
			slab := make([]float32, 2*dims*e.Count+8)
			cols := slab[:2*dims*e.Count]
			if err := DecodeRegionColumns(img, e, dims, ids, cols); err != nil {
				t.Fatal(err)
			}
			for _, v := range slab[len(cols):] {
				if v != 0 {
					t.Fatalf("dims=%d cluster at %d: decoder wrote past the column slab", dims, e.Offset)
				}
			}
			wantIDs, wantData, err := ReadRegion(dev, e, dims)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				if ids[i] != wantIDs[i] {
					t.Fatal("ids differ")
				}
				for d := 0; d < dims; d++ {
					lo, hi := cols[2*d*e.Count+i], cols[(2*d+1)*e.Count+i]
					if lo != wantData[i*2*dims+2*d] || hi != wantData[i*2*dims+2*d+1] {
						t.Fatalf("dims=%d cluster at %d: column transpose mismatch at member %d dim %d", dims, e.Offset, i, d)
					}
				}
			}
		}
		if ragged == 0 {
			t.Fatalf("dims=%d: no cluster has a partial 8-row band", dims)
		}
	}
	// Corruption must be detected: flip a byte, keep the stale CRC.
	dev, dir := planCheckpoint(t, 4, 2000)
	e := dir[0]
	img := make([]byte, e.RegionBytes(4))
	if _, err := dev.ReadAt(img, e.Offset); err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	ids := make([]uint32, e.Count)
	cols := make([]float32, 2*4*e.Count)
	if err := DecodeRegionColumns(img, e, 4, ids, cols); err == nil {
		t.Fatal("corrupt image must fail the checksum")
	}
	// A wrong-size image must be rejected before the checksum.
	if err := DecodeRegionColumns(img[:len(img)-4], e, 4, ids, cols); err == nil {
		t.Fatal("truncated image must be rejected")
	}
}
