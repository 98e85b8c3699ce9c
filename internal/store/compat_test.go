package store

// Format-compatibility pinning: the device format stores member coordinates
// interleaved (row-major), the layout the in-memory engine used before it
// went columnar. This test hand-assembles a version-1 segment byte by byte —
// independent of Save, so a layout change in either the engine or the writer
// cannot silently re-define the format — and checks that Load transposes it
// into a working index.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
)

func putF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }

func TestLoadPreColumnarSegment(t *testing.T) {
	const dims = 2
	// Three objects in row-major flat order: lo0,hi0,lo1,hi1 per object.
	ids := []uint32{7, 9, 11}
	rows := [][]float32{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.6, 0.0, 1.0},
		{0.25, 0.25, 0.75, 0.75},
	}
	const (
		count    = 3
		capacity = 4
	)
	es := entrySize(dims)
	regionOff := int64(headerSize + es)

	region := make([]byte, regionSize(capacity, dims))
	for k, id := range ids {
		binary.LittleEndian.PutUint32(region[k*4:], id)
	}
	coordBase := capacity * 4
	for k, row := range rows {
		for j, v := range row {
			putF32(region[coordBase+(k*2*dims+j)*4:], v)
		}
	}

	dir := make([]byte, es)
	parent := int32(-1) // root
	binary.LittleEndian.PutUint32(dir[0:], uint32(parent))
	binary.LittleEndian.PutUint32(dir[4:], count)
	binary.LittleEndian.PutUint32(dir[8:], capacity)
	binary.LittleEndian.PutUint64(dir[12:], uint64(regionOff))
	binary.LittleEndian.PutUint32(dir[20:], crc32.ChecksumIEEE(region))
	for d := 0; d < dims; d++ {
		putF32(dir[24+d*16:], 0)    // aLo
		putF32(dir[24+d*16+4:], 1)  // aHi
		putF32(dir[24+d*16+8:], 0)  // bLo
		putF32(dir[24+d*16+12:], 1) // bHi
	}

	head := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint32(head[4:], version)
	binary.LittleEndian.PutUint32(head[8:], dims)
	binary.LittleEndian.PutUint32(head[12:], 1) // cluster count
	binary.LittleEndian.PutUint32(head[16:], uint32(es))
	binary.LittleEndian.PutUint32(head[20:], crc32.ChecksumIEEE(dir))
	binary.LittleEndian.PutUint32(head[24:], crc32.ChecksumIEEE(head[:24]))

	dev := NewMemDevice()
	if _, err := dev.WriteAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(dir, headerSize); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(region, regionOff); err != nil {
		t.Fatal(err)
	}

	ix, err := Load(dev, core.Config{})
	if err != nil {
		t.Fatalf("loading a hand-assembled v1 segment: %v", err)
	}
	if ix.Len() != count || ix.Dims() != dims {
		t.Fatalf("loaded %d objects / %d dims, want %d / %d", ix.Len(), ix.Dims(), count, dims)
	}
	for k, id := range ids {
		r, ok := ix.Get(id)
		if !ok {
			t.Fatalf("object %d missing after load", id)
		}
		want := rows[k]
		if r.Min[0] != want[0] || r.Max[0] != want[1] || r.Min[1] != want[2] || r.Max[1] != want[3] {
			t.Fatalf("object %d: got %v, want %v", id, r, want)
		}
	}
	// A selection over the transposed columns sees all members.
	if n := len(queryIDs(t, ix, geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}, geom.Intersects)); n != count {
		t.Fatalf("full-domain count = %d, want %d", n, count)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Round-trip: saving the columnar index reproduces byte-identical
	// header/directory geometry and an equivalent region (same transpose).
	dev2 := NewMemDevice()
	if err := Save(ix, dev2); err != nil {
		t.Fatal(err)
	}
	ix2, err := Load(dev2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		a, _ := ix.Get(id)
		b, ok := ix2.Get(id)
		if !ok || !a.Equal(b) {
			t.Fatalf("object %d differs after save/load round-trip", id)
		}
	}
}
