#include "textflag.h"

// TRANSPOSE32 transposes the 32x32 bit matrix in lo:hi (row r at bytes
// 4r..4r+3 of the pair, lo the first 64 bytes) into olo:ohi, as sixteen 8x8
// block transposes: two VPERMI2B gather the blocks (one per quadword, rows in
// reverse byte order) through ·transposeGather, two VGF2P8AFFINEQB transpose
// every block at once (the block is the matrix operand, the unit vectors
// 1<<k in unit are the data), and two VPERMB put each block at its
// transposed place through ·transposeScatter, loaded into s0 and s1.
#define TRANSPOSE32(lo, hi, olo, ohi, unit, s0, s1) \
	VMOVDQU64      ·transposeGather+0(SB), olo;  \
	VMOVDQU64      ·transposeGather+64(SB), ohi; \
	VPERMI2B       hi, lo, olo;                  \
	VPERMI2B       hi, lo, ohi;                  \
	VGF2P8AFFINEQB $0, olo, unit, olo;           \
	VGF2P8AFFINEQB $0, ohi, unit, ohi;           \
	VMOVDQU64      ·transposeScatter+0(SB), s0;  \
	VMOVDQU64      ·transposeScatter+64(SB), s1; \
	VPERMB         olo, s0, olo;                 \
	VPERMB         ohi, s1, ohi

// func bpcFrontGFNI(entry *[128]byte, rows *[16]uint64) (p32 uint32, orE, andE, orD uint64)
//
// BPC's encode pre-pass (bpcFrontGo) with the 32 entry words in Z0:Z1, one
// per dword lane. Lane i of Z2:Z3 is word i+1, so Z4:Z5 holds the low 32
// bits of delta i, and the unsigned compare word i+1 < word i is the delta's
// borrow, its 33rd bit: the borrow mask is plane 32. Lane 31 (delta 31 does
// not exist) is masked out of both by K1. The transition masks
// e = d ^ d>>1 ^ borrow<<31 go through TRANSPOSE32 into planes 0..31, which
// are stored to rows and tested whole for the orE and andE bits.
TEXT ·bpcFrontGFNI(SB), NOSPLIT, $0-48
	MOVQ      entry+0(FP), DI
	MOVQ      rows+8(FP), SI
	VMOVDQU32 (DI), Z0
	VMOVDQU32 64(DI), Z1
	MOVL      $0x7FFF, AX
	KMOVW     AX, K1
	VALIGND   $1, Z0, Z1, Z2
	VALIGND   $1, Z1, Z0, Z3
	VPSUBD    Z0, Z2, Z4
	VPSUBD.Z  Z1, Z3, K1, Z5
	VPCMPUD   $1, Z0, Z2, K2
	VPCMPUD   $1, Z1, Z3, K1, K3

	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z8
	VPSRLD       $1, Z4, Z6
	VPSRLD       $1, Z5, Z7
	VPXORD       Z4, Z6, Z6
	VPXORD       Z5, Z7, Z7
	VPXORD       Z8, Z6, K2, Z6
	VPXORD       Z8, Z7, K3, Z7

	MOVQ         $0x8040201008040201, AX
	VPBROADCASTQ AX, Z9
	TRANSPOSE32(Z6, Z7, Z2, Z3, Z9, Z10, Z11)
	VMOVDQU32    Z2, (SI)
	VMOVDQU32    Z3, 64(SI)

	// orD: the OR of the 31 deltas, folded across the lanes.
	VPORD   Z4, Z5, Z4
	VALIGND $8, Z4, Z4, Z5
	VPORD   Z5, Z4, Z4
	VALIGND $4, Z4, Z4, Z5
	VPORD   Z5, Z4, Z4
	VALIGND $2, Z4, Z4, Z5
	VPORD   Z5, Z4, Z4
	VALIGND $1, Z4, Z4, Z5
	VPORD   Z5, Z4, Z4

	// orE and andE bits 0..31: a plane is non-zero, a plane is all 31 ones.
	MOVL         $0x7FFFFFFF, AX
	VPBROADCASTD AX, Z10
	VPTESTMD     Z2, Z2, K4
	VPTESTMD     Z3, Z3, K5
	VPCMPEQD     Z10, Z2, K6
	VPCMPEQD     Z10, Z3, K7

	// Bit 32 of orE and orD: some delta borrows; of andE: all 31 do.
	KMOVW K2, AX
	KMOVW K3, BX
	SHLL  $16, BX
	ORL   BX, AX
	MOVL  AX, p32+16(FP)
	XORL  CX, CX
	TESTL AX, AX
	SETNE CL
	SHLQ  $32, CX
	XORL  DX, DX
	CMPL  AX, $0x7FFFFFFF
	SETEQ DX
	SHLQ  $32, DX

	KMOVW K4, AX
	KMOVW K5, BX
	SHLL  $16, BX
	ORL   BX, AX
	ORQ   CX, AX
	MOVQ  AX, orE+24(FP)
	KMOVW K6, AX
	KMOVW K7, BX
	SHLL  $16, BX
	ORL   BX, AX
	ORQ   DX, AX
	MOVQ  AX, andE+32(FP)
	MOVQ  X4, AX
	MOVL  AX, AX
	ORQ   CX, AX
	MOVQ  AX, orD+40(FP)
	VZEROUPPER
	RET

// func bpcBackGFNI(planes *[33]uint32, base uint32, dst *[128]byte)
//
// BPC's dense decode rebuild (bpcBackGo) with DBX planes 0..31 in Z0:Z1, one
// per dword lane. A suffix XOR turns them into DBP planes: four shift-down
// steps within each half, then the top plane XORed into the high half and
// the high half's lane 0 (DBP plane 16) into the low one. TRANSPOSE32 makes
// lane i delta i; a four-step prefix sum per half, plus base, with the low
// half's last sum carried into the high half, gives words 1..32 in lanes
// 0..31. The stores shift them up one word with base in word 0.
TEXT ·bpcBackGFNI(SB), NOSPLIT, $0-24
	MOVQ      planes+0(FP), SI
	MOVQ      dst+16(FP), DI
	VMOVDQU32 (SI), Z0
	VMOVDQU32 64(SI), Z1
	VPXORD    Z9, Z9, Z9

	VALIGND $1, Z0, Z9, Z2
	VALIGND $1, Z1, Z9, Z3
	VPXORD  Z2, Z0, Z0
	VPXORD  Z3, Z1, Z1
	VALIGND $2, Z0, Z9, Z2
	VALIGND $2, Z1, Z9, Z3
	VPXORD  Z2, Z0, Z0
	VPXORD  Z3, Z1, Z1
	VALIGND $4, Z0, Z9, Z2
	VALIGND $4, Z1, Z9, Z3
	VPXORD  Z2, Z0, Z0
	VPXORD  Z3, Z1, Z1
	VALIGND $8, Z0, Z9, Z2
	VALIGND $8, Z1, Z9, Z3
	VPXORD  Z2, Z0, Z0
	VPXORD  Z3, Z1, Z1

	VPBROADCASTD 128(SI), Z2
	VPXORD       Z2, Z1, Z1
	VPBROADCASTD X1, Z2
	VPXORD       Z2, Z0, Z0

	MOVQ         $0x8040201008040201, AX
	VPBROADCASTQ AX, Z4
	TRANSPOSE32(Z0, Z1, Z2, Z3, Z4, Z5, Z6)

	VALIGND $15, Z9, Z2, Z5
	VALIGND $15, Z9, Z3, Z6
	VPADDD  Z5, Z2, Z2
	VPADDD  Z6, Z3, Z3
	VALIGND $14, Z9, Z2, Z5
	VALIGND $14, Z9, Z3, Z6
	VPADDD  Z5, Z2, Z2
	VPADDD  Z6, Z3, Z3
	VALIGND $12, Z9, Z2, Z5
	VALIGND $12, Z9, Z3, Z6
	VPADDD  Z5, Z2, Z2
	VPADDD  Z6, Z3, Z3
	VALIGND $8, Z9, Z2, Z5
	VALIGND $8, Z9, Z3, Z6
	VPADDD  Z5, Z2, Z2
	VPADDD  Z6, Z3, Z3

	MOVL         base+8(FP), AX
	VPBROADCASTD AX, Z7
	VPADDD       Z7, Z2, Z2
	MOVL         $15, AX
	VPBROADCASTD AX, Z8
	VPERMD       Z2, Z8, Z5
	VPADDD       Z5, Z3, Z3

	VALIGND   $15, Z7, Z2, Z5
	VALIGND   $15, Z2, Z3, Z6
	VMOVDQU32 Z5, (DI)
	VMOVDQU32 Z6, 64(DI)
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
