#include "textflag.h"

// AVX2 bodies of the column-verification kernels; see kernel.go for the
// contract and kernel_amd64.go for the dispatch. Both shapes share one body,
// FILTER, instantiated with the compare predicates of the lo and hi sides:
// VCMPPS $p, mem, Ya, Yd sets Yd = (a p mem), so lo ≤ a is GE_OQ (a ≥ lo)
// and hi ≥ b is LE_OQ (b ≤ hi). Ordered-quiet predicates make every NaN
// comparison false, as with Go's <= and >=.
//
// Registers: SI lo lanes, DI hi lanes, DX bits word, CX full words left (then
// the tail shift), BX tail lanes left, AX survivors, R8 keep bits, R9 one
// chunk's 8 keep bits, R10 the current word, Y12 = a and Y13 = b broadcast.
//
// Full words run eight unrolled chunks. The partial last word, when its bits
// are not all clear, runs 8-lane chunks while at least 8 lanes remain, then
// one chunk of r < 8 lanes through VMASKMOVPS, which reads nothing past
// len(lo) or len(hi). The word loop leaves CX = 0, so CX then counts the bit
// position of the next tail chunk. Keep bits exist only for live lanes, so
// the narrowed word has no bit past len(lo).

#define LE_OQ $0x12
#define GE_OQ $0x1D

// tailmask<>+4·(8-r) holds eight dwords whose first r are all ones: the
// load mask of a chunk with r < 8 live lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// LANES8 sets dst to the keep bits of the 8 lanes at byte offset off.
#define LANES8(plo, phi, off, dst) \
	VCMPPS plo, off(SI), Y12, Y0; \
	VCMPPS phi, off(DI), Y13, Y1; \
	VANDPS Y0, Y1, Y0; \
	VMOVMSKPS Y0, dst

// LANES8AT ORs the keep bits of the 8 lanes at byte offset off into R8 at
// bit position shift.
#define LANES8AT(plo, phi, off, shift) \
	LANES8(plo, phi, off, R9); \
	SHLQ $shift, R9; \
	ORQ R9, R8

#define FILTER(plo, phi) \
	MOVQ lo_base+0(FP), SI; \
	MOVQ lo_len+8(FP), BX; \
	MOVQ hi_base+24(FP), DI; \
	MOVQ bits_base+56(FP), DX; \
	VBROADCASTSS a+48(FP), Y12; \
	VBROADCASTSS b+52(FP), Y13; \
	XORQ AX, AX; \
	MOVQ BX, CX; \
	SHRQ $6, CX; \
	ANDQ $63, BX; \
	TESTQ CX, CX; \
	JZ tail; \
word: \
	MOVQ (DX), R10; \
	TESTQ R10, R10; \
	JZ next; \
	LANES8(plo, phi, 0, R8); \
	LANES8AT(plo, phi, 32, 8); \
	LANES8AT(plo, phi, 64, 16); \
	LANES8AT(plo, phi, 96, 24); \
	LANES8AT(plo, phi, 128, 32); \
	LANES8AT(plo, phi, 160, 40); \
	LANES8AT(plo, phi, 192, 48); \
	LANES8AT(plo, phi, 224, 56); \
	ANDQ R8, R10; \
	MOVQ R10, (DX); \
	POPCNTQ R10, R10; \
	ADDQ R10, AX; \
next: \
	ADDQ $256, SI; \
	ADDQ $256, DI; \
	ADDQ $8, DX; \
	DECQ CX; \
	JNZ word; \
tail: \
	TESTQ BX, BX; \
	JZ done; \
	MOVQ (DX), R10; \
	TESTQ R10, R10; \
	JZ done; \
	XORQ R8, R8; \
tail8: \
	CMPQ BX, $8; \
	JB tailpart; \
	LANES8(plo, phi, 0, R9); \
	SHLQ CX, R9; \
	ORQ R9, R8; \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	ADDQ $8, CX; \
	SUBQ $8, BX; \
	JMP tail8; \
tailpart: \
	TESTQ BX, BX; \
	JZ tailstore; \
	LEAQ tailmask<>(SB), R11; \
	NEGQ BX; \
	VMOVDQU 32(R11)(BX*4), Y2; \
	VMASKMOVPS (SI), Y2, Y3; \
	VMASKMOVPS (DI), Y2, Y4; \
	VCMPPS plo, Y3, Y12, Y0; \
	VCMPPS phi, Y4, Y13, Y1; \
	VANDPS Y0, Y1, Y0; \
	VANDPS Y2, Y0, Y0; \
	VMOVMSKPS Y0, R9; \
	SHLQ CX, R9; \
	ORQ R9, R8; \
tailstore: \
	ANDQ R8, R10; \
	MOVQ R10, (DX); \
	POPCNTQ R10, R10; \
	ADDQ R10, AX; \
done: \
	VZEROUPPER; \
	MOVQ AX, ret+80(FP); \
	RET

// func filterLeGeAVX2(lo, hi []float32, a, b float32, bits []uint64) int
TEXT ·filterLeGeAVX2(SB), NOSPLIT, $0-88
	FILTER(GE_OQ, LE_OQ)

// func filterGeLeAVX2(lo, hi []float32, a, b float32, bits []uint64) int
TEXT ·filterGeLeAVX2(SB), NOSPLIT, $0-88
	FILTER(LE_OQ, GE_OQ)

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
