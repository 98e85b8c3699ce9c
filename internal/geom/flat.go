package geom

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
