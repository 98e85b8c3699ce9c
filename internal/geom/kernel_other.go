//go:build !amd64

package geom

// useAVX2 is false off amd64: the portable bodies are the only kernels.
const useAVX2 = false

// filterLeGe runs the portable leGe body (lo ≤ a ∧ hi ≥ b).
//
//ac:noalloc
func filterLeGe(lo, hi []float32, a, b float32, bits []uint64) int {
	return filterLeGeGeneric(lo, hi, a, b, bits)
}

// filterGeLe runs the portable geLe body (lo ≥ a ∧ hi ≤ b).
//
//ac:noalloc
func filterGeLe(lo, hi []float32, a, b float32, bits []uint64) int {
	return filterGeLeGeneric(lo, hi, a, b, bits)
}
