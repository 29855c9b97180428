#include "textflag.h"

// func transposeGFNI(w *[16]uint64)
//
// The 32x32 bit transpose as sixteen 8x8 block transposes: two VPERMI2B
// gather the blocks (one per quadword, rows in reverse byte order) through
// ·transposeGather, two VGF2P8AFFINEQB transpose every block at once (the
// block is the matrix operand, the unit vectors 1<<k are the data), and two
// VPERMB put each block at its transposed place through ·transposeScatter.
TEXT ·transposeGFNI(SB), NOSPLIT, $0-8
	MOVQ      w+0(FP), DI
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 ·transposeGather+0(SB), Z2
	VMOVDQU64 ·transposeGather+64(SB), Z3
	VPERMI2B  Z1, Z0, Z2
	VPERMI2B  Z1, Z0, Z3
	MOVQ      $0x8040201008040201, AX
	VPBROADCASTQ AX, Z4
	VGF2P8AFFINEQB $0, Z2, Z4, Z2
	VGF2P8AFFINEQB $0, Z3, Z4, Z3
	VMOVDQU64 ·transposeScatter+0(SB), Z5
	VMOVDQU64 ·transposeScatter+64(SB), Z6
	VPERMB    Z2, Z5, Z2
	VPERMB    Z3, Z6, Z3
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
