package geom

import (
	"encoding/binary"
	"math"
)

// The storage engines keep object coordinates in flat []float32 buffers for
// data locality (the paper stores each cluster's members sequentially to
// benefit from cache lines and sequential disk transfer). The layout for an
// object at index i with Nd dimensions is
//
//	buf[i*2*Nd + 2*d]   = Min[d]
//	buf[i*2*Nd + 2*d+1] = Max[d]
//
// Flat provides bounds-checked views over such buffers.

// FlatLen returns the number of float32 slots used by n objects of the given
// dimensionality.
func FlatLen(n, dims int) int { return n * 2 * dims }

// AppendFlat appends the coordinates of r to buf in flat layout.
func AppendFlat(buf []float32, r Rect) []float32 {
	for d := range r.Min {
		buf = append(buf, r.Min[d], r.Max[d])
	}
	return buf
}

// FromFlat copies the i-th object out of buf into a fresh Rect.
func FromFlat(buf []float32, i, dims int) Rect {
	r := NewRect(dims)
	base := i * 2 * dims
	for d := 0; d < dims; d++ {
		r.Min[d] = buf[base+2*d]
		r.Max[d] = buf[base+2*d+1]
	}
	return r
}

// FlatMatches evaluates rel between the i-th object in buf and the query q
// without materializing a Rect. It returns the match outcome and the number
// of dimensions inspected before the verdict (early exit on the first failing
// dimension), which feeds the byte-level verification cost accounting.
func FlatMatches(buf []float32, i int, q Rect, rel Relation) (ok bool, dimsChecked int) {
	dims := q.Dims()
	base := i * 2 * dims
	switch rel {
	case Intersects:
		for d := 0; d < dims; d++ {
			lo, hi := buf[base+2*d], buf[base+2*d+1]
			if lo > q.Max[d] || q.Min[d] > hi {
				return false, d + 1
			}
		}
	case ContainedBy:
		for d := 0; d < dims; d++ {
			lo, hi := buf[base+2*d], buf[base+2*d+1]
			if lo < q.Min[d] || hi > q.Max[d] {
				return false, d + 1
			}
		}
	case Encloses:
		for d := 0; d < dims; d++ {
			lo, hi := buf[base+2*d], buf[base+2*d+1]
			if lo > q.Min[d] || hi < q.Max[d] {
				return false, d + 1
			}
		}
	default:
		return false, 0
	}
	return true, dims
}

// ColumnsFromFlat transposes n rows of the flat layout, stored as
// little-endian float32 bytes (8·dims bytes per row, the on-device record
// layout of internal/store), into 2·dims contiguous columns: column j is
// cols[j·n:(j+1)·n], so Min[d] of row i lands in cols[2d·n+i] and Max[d] in
// cols[(2d+1)·n+i]. It copies bit patterns and does no float arithmetic:
// NaN payloads, signalling NaNs, −0, ±Inf and subnormals come out unchanged.
// It reads nothing past flat[:8·dims·n], writes nothing past
// cols[:2·dims·n], allocates nothing, and panics when either slice is
// shorter than that.
//
// The AVX2 body (kernel_amd64.s) transposes 8×8 tiles in 8-row bands; the
// last n mod 8 rows and the last 2·dims mod 8 columns, and every row on
// CPUs without AVX2, go through the portable body.
//
//ac:noalloc
func ColumnsFromFlat(cols []float32, flat []byte, n, dims int) {
	if n < 0 || dims < 0 || len(flat) < 8*dims*n || len(cols) < 2*dims*n {
		panic("geom: ColumnsFromFlat: flat image or column slab shorter than n rows")
	}
	columnsFromFlat(cols[:2*dims*n], flat[:8*dims*n], n, dims)
}

// columnsFromFlatGeneric is the portable body of ColumnsFromFlat over the
// rows [r0, r1) of the dimensions [d0, d1): dimension-outer, row-inner, one
// strided read per coordinate.
//
//ac:noalloc
func columnsFromFlatGeneric(cols []float32, flat []byte, n, dims, r0, r1, d0, d1 int) {
	stride := 8 * dims
	for d := d0; d < d1; d++ {
		lo := cols[2*d*n+r0 : 2*d*n+r1]
		hi := cols[(2*d+1)*n+r0 : (2*d+1)*n+r1]
		off := r0*stride + 8*d
		for k := range lo {
			lo[k] = math.Float32frombits(binary.LittleEndian.Uint32(flat[off:]))
			hi[k] = math.Float32frombits(binary.LittleEndian.Uint32(flat[off+4:]))
			off += stride
		}
	}
}
