package geom

// useAVX2 reports whether the AVX2 kernel bodies may run. It is fixed at
// start-up from the CPU's feature bits; nothing else selects the path.
var useAVX2 = cpuHasAVX2()

// filterLeGe dispatches the leGe shape (lo ≤ a ∧ hi ≥ b) to its AVX2 body
// when available and to the portable body otherwise.
//
//ac:noalloc
func filterLeGe(lo, hi []float32, a, b float32, bits []uint64) int {
	if useAVX2 {
		return filterLeGeAVX2(lo, hi, a, b, kernelBits(lo, hi, bits))
	}
	return filterLeGeGeneric(lo, hi, a, b, bits)
}

// filterGeLe dispatches the geLe shape (lo ≥ a ∧ hi ≤ b) to its AVX2 body
// when available and to the portable body otherwise.
//
//ac:noalloc
func filterGeLe(lo, hi []float32, a, b float32, bits []uint64) int {
	if useAVX2 {
		return filterGeLeAVX2(lo, hi, a, b, kernelBits(lo, hi, bits))
	}
	return filterGeLeGeneric(lo, hi, a, b, bits)
}

// filterLeGeAVX2 and filterGeLeAVX2 are the vector bodies (kernel_amd64.s).
// They require len(hi) ≥ len(lo) and len(bits) == BitmapWords(len(lo)),
// which kernelBits establishes, and read no lane past len(lo).
//
//go:noescape
func filterLeGeAVX2(lo, hi []float32, a, b float32, bits []uint64) int

//go:noescape
func filterGeLeAVX2(lo, hi []float32, a, b float32, bits []uint64) int

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of extended control register 0, the state
// components the OS saves on a context switch. It faults unless CPUID
// reports OSXSAVE.
func xcr0() uint32

// cpuHasAVX2 reports whether the CPU has AVX2, AVX and POPCNT and the OS
// saves the YMM registers.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		popcnt  = 1 << 23     // leaf 1 ECX
		osxsave = 1 << 27     // leaf 1 ECX
		avx     = 1 << 28     // leaf 1 ECX
		avx2    = 1 << 5      // leaf 7 EBX
		ymmOS   = 1<<1 | 1<<2 // XCR0: SSE and AVX register state saved
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0()&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
