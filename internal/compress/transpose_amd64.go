package compress

// On amd64 each half of BPC's data-parallel work — the encoder's delta and
// transition pre-pass, the decoder's dense rebuild — runs as one AVX-512
// pass (transpose_amd64.s) when the CPU and the OS allow it, and as its
// pure-Go twin otherwise. Both passes hold the entry's 128 bytes in two ZMM
// registers and share one 32x32 bit transpose, TRANSPOSE32. It views the
// matrix as its 128 bytes, row r at bytes 4r..4r+3, and as sixteen 8x8
// blocks: block (R, C) is byte C of rows 8R..8R+7, and its
// transpose is block (C, R) of the result. transposeGather lays the blocks
// out one per quadword for VPERMI2B, transposeScatter puts each transposed
// block back for VPERMB.

var useGFNI = gfniSupported()

var transposeGather, transposeScatter [EntryBytes]byte

func init() {
	// Gather: quadword q of half h is block (R, C) = (q%4, 2h+q/4), and its
	// byte p is the block's row 7-p, the order GF2P8AFFINEQB's matrix
	// operand takes its rows in.
	for h := 0; h < 2; h++ {
		for q := 0; q < 8; q++ {
			r, c := q%4, 2*h+q/4
			for p := 0; p < 8; p++ {
				transposeGather[64*h+8*q+p] = byte(32*r + 4*(7-p) + c)
			}
		}
	}
	// Scatter: result byte o is byte R of row 8C+j, where block (R, C)'s
	// transpose left row j at gathered byte 8(R+4C)+j. The upper half's
	// indices stay above 63; VPERMB reads only their low six bits.
	for o := range transposeScatter {
		c, j, r := o/32, (o%32)/4, o%4
		transposeScatter[o] = byte(8*(r+4*c) + j)
	}
}

// bpcFront is BPC's encode pre-pass (see bpcFrontGo), in one AVX-512 pass
// over the entry where the CPU has it.
//
//buddy:hotpath
func bpcFront(entry *[EntryBytes]byte, codes *bpcCodes) (p32 uint32, orE, andE, orD uint64, total int) {
	if useGFNI {
		return bpcFrontGFNI(entry, codes)
	}
	return bpcFrontGo(entry, codes)
}

// bpcBack is BPC's dense decode rebuild (see bpcBackGo), in one AVX-512 pass
// over the planes where the CPU has it.
//
//buddy:hotpath
func bpcBack(planes *[bpcPlanes]uint32, base uint32, dst *[EntryBytes]byte) {
	if useGFNI {
		bpcBackGFNI(planes, base, dst)
		return
	}
	bpcBackGo(planes, base, dst)
}

// bpcFrontGFNI is bpcFrontGo with the transpose always run and every plane
// code computed lane-wise; it needs AVX512F, AVX512BW, AVX512CD, AVX512VBMI
// and GFNI (gfniSupported).
//
//go:noescape
func bpcFrontGFNI(entry *[EntryBytes]byte, codes *bpcCodes) (p32 uint32, orE, andE, orD uint64, total int)

// bpcCodeConsts are bpcFrontGFNI's broadcast constants, in the order it
// loads them: the raw and short code lengths (32, 10), the short code's base
// 0b00011<<5 | 31 and its two-ones offset 0b00001<<5, the aggregate length
// 5, the DBP-zero and one-plane-run code 1, the run code's base
// 0b01<<5 - 1, the run lengths 7 and 3, and the quadword 64 (the last two
// words).
var bpcCodeConsts = [11]uint32{32, 10, 0x7F, 0x20, 5, 1, 31, 7, 3, 64, 0}

// bpcRunShift is lane b's shift in bpcFrontGFNI's run-length step, 31-b: it
// moves the zero planes below plane b to the top of the lane.
var bpcRunShift = [32]uint32{31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16,
	15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}

// bpcBackGFNI is bpcBackGo; it needs AVX512F, AVX512BW, AVX512VBMI and GFNI
// (gfniSupported checks AVX512CD too, for bpcFrontGFNI).
//
//go:noescape
func bpcBackGFNI(planes *[bpcPlanes]uint32, base uint32, dst *[EntryBytes]byte)

// cpuid runs CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)

// gfniSupported reports whether the AVX-512 kernels can run: the CPU has
// AVX512F, AVX512BW, AVX512CD, AVX512VBMI and GFNI, and the OS saves the
// SSE, AVX, opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
func gfniSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	if xgetbv()&0xE6 != 0xE6 {
		return false
	}
	const (
		avx512f    = 1 << 16 // leaf 7 EBX
		avx512cd   = 1 << 28 // leaf 7 EBX
		avx512bw   = 1 << 30 // leaf 7 EBX
		avx512vbmi = 1 << 1  // leaf 7 ECX
		gfni       = 1 << 8  // leaf 7 ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512cd|avx512bw) == avx512f|avx512cd|avx512bw &&
		ecx7&(avx512vbmi|gfni) == avx512vbmi|gfni
}
