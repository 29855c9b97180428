package compress

import (
	"testing"

	"buddy/internal/gen"
)

func transposeKernels() []string { return []string{"butterfly", "gfni"} }

const noGFNI = "the CPU lacks AVX512F, AVX512BW, AVX512VBMI or GFNI, or the OS does not save ZMM state"

// selectTranspose makes transpose32 dispatch to kernel until tb's test
// ends. It reports false, and logs why, when this CPU cannot run kernel.
func selectTranspose(tb testing.TB, kernel string) bool {
	gfni := kernel == "gfni"
	if gfni && !gfniSupported() {
		tb.Log("gfni transpose not run: " + noGFNI)
		return false
	}
	saved := useGFNI
	useGFNI = gfni
	tb.Cleanup(func() { useGFNI = saved })
	return true
}

// TestTransposeGFNIMatchesButterfly holds the GFNI kernel to the butterfly
// on random matrices. Every other matrix has word pairs cleared — rows 16
// apart, then rows 8 apart — so the butterfly's skip branches for all-zero
// pairs run too.
func TestTransposeGFNIMatchesButterfly(t *testing.T) {
	if !gfniSupported() {
		t.Skip(noGFNI)
	}
	r := gen.NewRNG(47, 1)
	for n := 0; n < 1<<17; n++ {
		var in, want, got [entryWordCount]uint64
		for i := range in {
			in[i] = r.Uint64()
		}
		if n&1 != 0 {
			clearMask := r.Uint64()
			for m := 0; m < 8; m++ {
				if clearMask>>m&1 != 0 {
					in[m], in[m+8] = 0, 0
				}
			}
			for m := 0; m < 16; m++ {
				if m&4 == 0 && clearMask>>(8+m)&1 != 0 {
					in[m], in[m+4] = 0, 0
				}
			}
		}
		want, got = in, in
		transposeButterfly(&want)
		transposeGFNI(&got)
		if got != want {
			t.Fatalf("matrix %d: gfni %x, butterfly %x (input %x)", n, got, want, in)
		}
	}
}
