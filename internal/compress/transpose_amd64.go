package compress

// On amd64 the 32x32 bit transpose runs as one GFNI pass when the CPU and
// the OS allow it (transpose_amd64.s), and as the butterfly otherwise. The
// kernel views the matrix as its 128 bytes, row r at bytes 4r..4r+3, and as
// sixteen 8x8 blocks: block (R, C) is byte C of rows 8R..8R+7, and its
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

// transpose32 transposes the 32x32 bit matrix in w in place (see
// transposeButterfly for the layout), in one GFNI pass where the CPU has
// it.
//
//buddy:hotpath
func transpose32(w *[entryWordCount]uint64) {
	if useGFNI {
		transposeGFNI(w)
		return
	}
	transposeButterfly(w)
}

// transposeGFNI is transposeButterfly in six AVX-512 instructions; it needs
// AVX512F, AVX512BW, AVX512VBMI and GFNI (gfniSupported).
//
//go:noescape
func transposeGFNI(w *[entryWordCount]uint64)

// cpuid runs CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)

// gfniSupported reports whether transposeGFNI can run: the CPU has AVX512F,
// AVX512BW, AVX512VBMI and GFNI, and the OS saves the SSE, AVX, opmask and
// ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
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
		avx512bw   = 1 << 30 // leaf 7 EBX
		avx512vbmi = 1 << 1  // leaf 7 ECX
		gfni       = 1 << 8  // leaf 7 ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512bw) == avx512f|avx512bw &&
		ecx7&(avx512vbmi|gfni) == avx512vbmi|gfni
}
