package geom

import (
	"math/rand"
	"syscall"
	"testing"
)

// TestColumnsFromFlatReadsWithinFlat places the flat image so that its last
// byte ends a page followed by an inaccessible page: a read of even one
// byte past flat[:8·dims·n] faults and kills the test binary. checkColumns
// checks the writes against guard slots.
func TestColumnsFromFlatReadsWithinFlat(t *testing.T) {
	logVectorPath(t)
	page := syscall.Getpagesize()
	const maxRows, maxDims = 40, 33
	span := (8*maxDims*maxRows + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, dims := range []int{1, 4, 5, 8, 16, 33} {
		for _, n := range []int{0, 7, 8, 9, 16, 39, 40} {
			size := 8 * dims * n
			flat := mem[span-size : span : span]
			copy(flat, randFlat(rng, n, dims))
			checkColumns(t, flat, n, dims)
		}
	}
}
