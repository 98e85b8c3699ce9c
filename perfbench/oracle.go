package main

// The answer check runs outside every timed call: during the measured phase
// each answer is reduced to an order-independent digest, and afterwards a
// brute-force scan over the objects live at that point of the op stream
// recomputes the digests of every (or a seeded sample of) operation. The
// scan shares no code with the engines it checks.

// relation is the oracle's own copy of the two selection predicates the
// workloads issue.
type relation int

const (
	// intersects selects boxes sharing at least one point with the query
	// (closed intervals).
	intersects relation = iota
	// encloses selects boxes containing the whole query; with a point query
	// it is the SDI point-enclosing match.
	encloses
)

// boxes is a flat row-major store of axis-aligned boxes with ids: box i spans
// [lo[i*dims+d], hi[i*dims+d]] on dimension d.
type boxes struct {
	dims   int
	ids    []uint32
	lo, hi []float32
}

func newBoxes(dims, capacity int) *boxes {
	return &boxes{
		dims: dims,
		ids:  make([]uint32, 0, capacity),
		lo:   make([]float32, 0, capacity*dims),
		hi:   make([]float32, 0, capacity*dims),
	}
}

// add appends a box.
func (b *boxes) add(id uint32, lo, hi []float32) {
	b.ids = append(b.ids, id)
	b.lo = append(b.lo, lo...)
	b.hi = append(b.hi, hi...)
}

// set replaces box i.
func (b *boxes) set(i int, id uint32, lo, hi []float32) {
	b.ids[i] = id
	copy(b.lo[i*b.dims:], lo)
	copy(b.hi[i*b.dims:], hi)
}

// match appends to dst the ids of every box satisfying rel with the query
// box [qlo, qhi].
func (b *boxes) match(dst []uint32, qlo, qhi []float32, rel relation) []uint32 {
	d := b.dims
	for i, id := range b.ids {
		lo, hi := b.lo[i*d:(i+1)*d], b.hi[i*d:(i+1)*d]
		ok := true
		for k := 0; k < d && ok; k++ {
			switch rel {
			case intersects:
				ok = lo[k] <= qhi[k] && qlo[k] <= hi[k]
			case encloses:
				ok = lo[k] <= qlo[k] && qhi[k] <= hi[k]
			}
		}
		if ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// digest identifies an answer set independently of emission order: the
// count and a wrapping sum of mixed ids.
type digest struct {
	N   uint32
	Sum uint64
}

// badDigest stands for an answer that could not be read (an error, or
// delivery counts that do not add up); no real answer has 2³²−1 ids, so it
// never matches the oracle.
var badDigest = digest{N: ^uint32(0)}

// digestOf reduces an answer to its digest.
func digestOf(ids []uint32) digest {
	d := digest{N: uint32(len(ids))}
	for _, id := range ids {
		d.Sum += mix64(uint64(id))
	}
	return d
}

// mix64 is the splitmix64 finalizer: a bijection that spreads every input
// bit over the output, so distinct id sets collide only by chance.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
