package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// columnSpecials are bit patterns the transposition must carry through
// unchanged: quiet NaNs with payloads and either sign, signalling NaNs, −0,
// ±Inf and subnormals. A copy through float arithmetic would quiet the
// signalling NaNs or flush the subnormals.
var columnSpecials = []uint32{
	0x7fc00000, 0xffc12345, 0x7fc00001, // quiet NaNs
	0x7f800001, 0x7fbfffff, 0xff800001, // signalling NaNs
	0x80000000, 0x00000000, // −0, +0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x807fffff, 0x00400000, // subnormals
}

// columnGuard fills the slots around the column slab; a write out of range
// changes one of them.
const columnGuard = 0x7fa5a5a5

// randFlat returns rows of the flat layout as little-endian bytes: rows·8·dims
// bytes of random 32-bit patterns, roughly half drawn from columnSpecials.
func randFlat(rng *rand.Rand, rows, dims int) []byte {
	flat := make([]byte, 8*dims*rows)
	for off := 0; off < len(flat); off += 4 {
		v := rng.Uint32()
		if rng.Intn(2) == 0 {
			v = columnSpecials[rng.Intn(len(columnSpecials))]
		}
		binary.LittleEndian.PutUint32(flat[off:], v)
	}
	return flat
}

// guardedColumns returns a slab of want floats with guard slots on both
// sides, and a check that the guards are intact.
func guardedColumns(want int) (cols []float32, intact func() bool) {
	const pad = 16
	buf := make([]float32, pad+want+pad)
	for i := range buf {
		buf[i] = math.Float32frombits(columnGuard)
	}
	return buf[pad : pad+want], func() bool {
		for i := range buf {
			if (i < pad || i >= pad+want) && math.Float32bits(buf[i]) != columnGuard {
				return false
			}
		}
		return true
	}
}

// checkColumns transposes the first n rows of flat through the dispatching
// kernel and the portable body into guarded slabs and checks both, bit for
// bit, against the layout's definition: column j, slot i holds the 32 bits
// at byte 4·(i·2·dims + j) of flat.
func checkColumns(t *testing.T, flat []byte, n, dims int) {
	t.Helper()
	w := 2 * dims
	got, gotIntact := guardedColumns(w * n)
	ref, refIntact := guardedColumns(w * n)
	ColumnsFromFlat(got, flat, n, dims)
	columnsFromFlatGeneric(ref, flat, n, dims, 0, n, 0, dims)
	if !gotIntact() || !refIntact() {
		t.Fatalf("n=%d dims=%d: a guard slot beside the columns changed (kernel %v, portable %v)",
			n, dims, gotIntact(), refIntact())
	}
	for j := 0; j < w; j++ {
		for i := 0; i < n; i++ {
			want := binary.LittleEndian.Uint32(flat[4*(i*w+j):])
			k, p := math.Float32bits(got[j*n+i]), math.Float32bits(ref[j*n+i])
			if k != want || p != want {
				t.Fatalf("n=%d dims=%d column %d row %d: kernel %#08x, portable %#08x, want %#08x",
					n, dims, j, i, k, p, want)
			}
		}
	}
}

// TestColumnsFromFlatMatchesPortable is the transposition differential: for
// every dimensionality 1–64 (2–128 columns, many not a multiple of 8) and
// every row count from 0 to three 8-row bands plus 7, plus 2 200 rows (a
// median disk region), the dispatching kernel and the portable body must
// both produce the defined columns bit for bit, write nothing beside the
// slab, and ignore the rows of flat past n.
func TestColumnsFromFlatMatchesPortable(t *testing.T) {
	logVectorPath(t)
	rng := rand.New(rand.NewSource(29))
	for dims := 1; dims <= 64; dims++ {
		// Two spare rows: the kernel must read only the first n.
		flat := randFlat(rng, 31+2, dims)
		for n := 0; n <= 31; n++ {
			checkColumns(t, flat, n, dims)
		}
	}
	for _, dims := range []int{1, 3, 4, 5, 8, 16, 17, 64} {
		checkColumns(t, randFlat(rng, 2200, dims), 2200, dims)
	}
}

// TestColumnsFromFlatShortSlicesPanic checks that a flat image or column
// slab shorter than n rows panics instead of being read or written out of
// bounds, whichever body would run.
func TestColumnsFromFlatShortSlicesPanic(t *testing.T) {
	logVectorPath(t)
	cases := []struct {
		name          string
		n, dims       int
		flatLen, cols int
	}{
		{"short flat, tiled", 16, 4, 8*4*16 - 1, 2 * 4 * 16},
		{"short cols, tiled", 16, 4, 8 * 4 * 16, 2*4*16 - 1},
		{"short flat, portable", 3, 1, 8*1*3 - 1, 2 * 1 * 3},
		{"short cols, portable", 3, 1, 8 * 1 * 3, 2*1*3 - 1},
		{"negative n", -8, 4, 0, 0},
		{"negative dims", 8, -4, 0, 0},
	}
	for _, c := range cases {
		// The backing arrays are long enough; only the slice lengths are
		// short, so a missing check would go unnoticed without the panic.
		flat := make([]byte, 1024)[:c.flatLen]
		cols := make([]float32, 1024)[:c.cols]
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			ColumnsFromFlat(cols, flat, c.n, c.dims)
			return false
		}()
		if !panicked {
			t.Errorf("%s: no panic", c.name)
		}
	}
}

// FuzzColumnsFromFlat fuzzes the transposition against its definition and
// the portable body: n is nRaw mod 300 rows, dims is dimsRaw mod 64 + 1,
// and spec/256 is the share of coordinates drawn from columnSpecials
// instead of uniform 32-bit patterns.
func FuzzColumnsFromFlat(f *testing.F) {
	logVectorPath(f)
	f.Add(uint16(0), byte(0), byte(0), int64(1))
	f.Add(uint16(8), byte(3), byte(128), int64(2))
	f.Add(uint16(9), byte(4), byte(255), int64(3))
	f.Add(uint16(31), byte(7), byte(64), int64(4))
	f.Add(uint16(64), byte(15), byte(32), int64(5))
	f.Add(uint16(299), byte(63), byte(200), int64(6))
	f.Fuzz(func(t *testing.T, nRaw uint16, dimsRaw, spec byte, seed int64) {
		n, dims := int(nRaw)%300, int(dimsRaw)%64+1
		rng := rand.New(rand.NewSource(seed))
		flat := make([]byte, 8*dims*n)
		for off := 0; off < len(flat); off += 4 {
			v := rng.Uint32()
			if rng.Intn(256) < int(spec) {
				v = columnSpecials[rng.Intn(len(columnSpecials))]
			}
			binary.LittleEndian.PutUint32(flat[off:], v)
		}
		checkColumns(t, flat, n, dims)
	})
}
