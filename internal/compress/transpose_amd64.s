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

// PLANECODES gives the code v and length n of each plane in x (a half of
// the transposed planes, one per dword lane) from the class masks in K1
// (need), K2 (aggregate-coded), K3 (aggregate-coded with DBP zero) and K5
// (a zero run's top), and shift, the half's bpcRunShift. Every lane starts
// raw (1 + the plane's 31 bits, 32); a need plane with no 1 outside
// l = x & -x and l<<1 takes the short code 0b0001t<<5 | tz (t = 1 for one
// 1, 0 for two), where tz = 31 - lzcnt(l); every other plane is cleared,
// then aggregate-coded planes take 00000 or 00001 (5) and a run's top,
// where lzcnt((2 orE + 1) << (31-b)) is the run's length less one, takes
// 001 (3) for a run of one, 01 + (run-2) (7) otherwise. K6 and K7 are
// scratch.
#define PLANECODES(x, shift, v, n, t0, t1, t2) \
	VPORD          Z8, x, v;          \
	VMOVDQA32      Z16, n;            \
	VPSUBD         x, Z28, t0;        \
	VPANDD         x, t0, t0;         \
	VPSLLD         $1, t0, t1;        \
	VPTERNLOGD     $0x02, x, t0, t1;  \
	VPTESTNMD      t1, t1, K1, K6;    \
	VPLZCNTD       t0, t2;            \
	VPSUBD         t2, Z18, t2;       \
	VPCMPUD        $4, t0, x, K6, K7; \
	VPSUBD         Z19, t2, K7, t2;   \
	VMOVDQA32      t2, K6, v;         \
	VMOVDQA32      Z17, K6, n;        \
	VMOVDQA32.Z    v, K1, v;          \
	VMOVDQA32.Z    n, K1, n;          \
	VMOVDQA32      Z21, K3, v;        \
	VMOVDQA32      Z20, K2, n;        \
	VPSLLVD        shift, Z25, t0;    \
	VPLZCNTD       t0, t0;            \
	VPADDD         Z22, t0, K5, v;    \
	VMOVDQA32      Z23, K5, n;        \
	VPTESTNMD      t0, t0, K5, K6;    \
	VMOVDQA32      Z21, K6, v;        \
	VMOVDQA32      Z24, K6, n

// PAIRS packs a half's codes two planes per quadword, the odd plane's code
// shifted up by the even plane's length, left-aligns each pair by its
// length, stores them at dst and leaves the eight pair lengths as bytes in
// xlen. K7 holds 0x5555, the even lanes; Z29 is 64 in every quadword.
#define PAIRS(v, n, t0, t1, dst, xlen) \
	VPSRLQ      $32, v, t0;  \
	VMOVDQA32.Z v, K7, v;    \
	VMOVDQA32.Z n, K7, t1;   \
	VPSLLVQ     t1, t0, t0;  \
	VPORQ       v, t0, t0;   \
	VPSRLQ      $32, n, n;   \
	VPADDQ      t1, n, n;    \
	VPSUBQ      n, Z29, t1;  \
	VPSLLVQ     t1, t0, t0;  \
	VMOVDQU64   t0, dst;     \
	VPMOVQB     n, xlen

// func bpcFrontGFNI(entry *[128]byte, codes *bpcCodes) (p32 uint32, orE, andE, orD uint64, total int)
//
// BPC's encode pre-pass (bpcFrontGo) with the 32 entry words in Z0:Z1, one
// per dword lane. Lane i of Z2:Z3 is word i+1, so Z4:Z5 holds the low 32
// bits of delta i, and the unsigned compare word i+1 < word i is the delta's
// borrow, its 33rd bit: the borrow mask is plane 32. Lane 31 (delta 31 does
// not exist) is masked out of both by K1. The transition masks
// e = d ^ d>>1 ^ borrow<<31 go through TRANSPOSE32 into planes 0..31, which
// are tested whole for the orE and andE bits. The aggregates give each
// plane's class as a bit mask; PLANECODES turns the classes into codes a
// half at a time, and PAIRS packs them into codes' pairs and lengths. The
// lengths' sum is total.
TEXT ·bpcFrontGFNI(SB), NOSPLIT, $0-56
	MOVQ      entry+0(FP), DI
	MOVQ      codes+8(FP), SI
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

	// orE in R8, andE in R9, orD in R10.
	KMOVW K4, R8
	KMOVW K5, BX
	SHLL  $16, BX
	ORL   BX, R8
	ORQ   CX, R8
	MOVQ  R8, orE+24(FP)
	KMOVW K6, R9
	KMOVW K7, BX
	SHLL  $16, BX
	ORL   BX, R9
	ORQ   DX, R9
	MOVQ  R9, andE+32(FP)
	VMOVQ X4, R10
	MOVL  R10, R10
	ORQ   CX, R10
	MOVQ  R10, orD+40(FP)

	// The class masks, bit b for plane b: need (R11) = orE &^ andE & orD,
	// aggregate-coded (R12) = orE &^ need, DBP zero among those (R13) =
	// aggregate-coded &^ andE, a run's top (BX) = ^orE & orE>>1. Z25 is
	// 2 orE + 1 in every lane, PLANECODES' run-length operand.
	MOVQ         R9, R11
	NOTQ         R11
	ANDQ         R8, R11
	ANDQ         R10, R11
	MOVQ         R11, R12
	NOTQ         R12
	ANDQ         R8, R12
	MOVQ         R9, R13
	NOTQ         R13
	ANDQ         R12, R13
	MOVQ         R8, BX
	SHRQ         $1, BX
	MOVQ         R8, CX
	NOTQ         CX
	ANDQ         CX, BX
	LEAQ         1(R8)(R8*1), DX
	VPBROADCASTD DX, Z25

	VPXORD       Z28, Z28, Z28
	VPBROADCASTD ·bpcCodeConsts+0(SB), Z16
	VPBROADCASTD ·bpcCodeConsts+4(SB), Z17
	VPBROADCASTD ·bpcCodeConsts+8(SB), Z18
	VPBROADCASTD ·bpcCodeConsts+12(SB), Z19
	VPBROADCASTD ·bpcCodeConsts+16(SB), Z20
	VPBROADCASTD ·bpcCodeConsts+20(SB), Z21
	VPBROADCASTD ·bpcCodeConsts+24(SB), Z22
	VPBROADCASTD ·bpcCodeConsts+28(SB), Z23
	VPBROADCASTD ·bpcCodeConsts+32(SB), Z24
	VPBROADCASTQ ·bpcCodeConsts+36(SB), Z29
	VMOVDQU32    ·bpcRunShift+0(SB), Z26
	VMOVDQU32    ·bpcRunShift+64(SB), Z27
	MOVL         $0x5555, DI

	// Planes 0..15.
	KMOVW      R11, K1
	KMOVW      R12, K2
	KMOVW      R13, K3
	KMOVW      BX, K5
	PLANECODES(Z2, Z26, Z4, Z5, Z6, Z7, Z10)
	KMOVW      DI, K7
	PAIRS(Z4, Z5, Z6, Z7, (SI), X12)

	// Planes 16..31.
	SHRQ       $16, R11
	SHRQ       $16, R12
	SHRQ       $16, R13
	SHRQ       $16, BX
	KMOVW      R11, K1
	KMOVW      R12, K2
	KMOVW      R13, K3
	KMOVW      BX, K5
	PLANECODES(Z3, Z27, Z4, Z5, Z6, Z7, Z10)
	KMOVW      DI, K7
	PAIRS(Z4, Z5, Z6, Z7, 64(SI), X13)

	// The sixteen lengths as bytes, and their sum.
	VPUNPCKLQDQ X13, X12, X12
	VMOVDQU     X12, 128(SI)
	VPXOR       X9, X9, X9
	VPSADBW     X9, X12, X12
	VPSHUFD     $0x4E, X12, X13
	VPADDQ      X13, X12, X12
	VMOVQ       X12, AX
	MOVQ        AX, total+48(FP)
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
