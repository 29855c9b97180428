package compress

import (
	"encoding/binary"
	"testing"

	"buddy/internal/gen"
)

func bpcKernels() []string { return []string{"butterfly", "gfni"} }

const noGFNI = "the CPU lacks AVX512F, AVX512BW, AVX512VBMI or GFNI, or the OS does not save ZMM state"

// selectKernel makes bpcFront and bpcBack dispatch to kernel until tb's
// test ends. It reports false, and logs why, when this CPU cannot run
// kernel.
func selectKernel(tb testing.TB, kernel string) bool {
	gfni := kernel == "gfni"
	if gfni && !gfniSupported() {
		tb.Log("gfni kernels not run: " + noGFNI)
		return false
	}
	saved := useGFNI
	useGFNI = gfni
	tb.Cleanup(func() { useGFNI = saved })
	return true
}

// TestGFNIKernelsMatchButterfly holds the two AVX-512 kernels to their
// pure-Go twins. bpcFrontGFNI must return bpcFrontGo's p32, orE, andE and
// orD and every plane need marks; bpcBackGFNI must write bpcBackGo's 128
// bytes, and both must rebuild the entry from its own planes. The inputs are
// 131 072 random matrices, each used as an entry and as the DBP rows the
// rebuild transposes — every other one with word pairs cleared, rows 16
// apart, then rows 8 apart, so the butterfly's skip branches for all-zero
// pairs run too — then the shapes the kernels' masks and compares single
// out, then entries of each VariedMix generator.
func TestGFNIKernelsMatchButterfly(t *testing.T) {
	if !gfniSupported() {
		t.Skip(noGFNI)
	}
	r := gen.NewRNG(47, 1)
	for n := 0; n < 1<<17; n++ {
		var in [entryWordCount]uint64
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
		var entry [EntryBytes]byte
		for i, w := range in {
			binary.LittleEndian.PutUint64(entry[8*i:], w)
		}
		checkKernelsOnEntry(t, "random", n, &entry)

		// The same matrix as DBP rows: DBX plane b is DBP b ^ DBP b+1.
		var planes [bpcPlanes]uint32
		top := uint32(r.Uint64())
		planes[bpcPlanes-1] = top
		for b := bpcPlanes - 2; b >= 0; b-- {
			dbp := uint32(in[b>>1] >> (uint(b&1) * 32))
			planes[b] = dbp ^ top
			top = dbp
		}
		checkBack(t, "dbp rows", n, &planes, uint32(r.Uint64()))
	}

	shape := func(f func(i int) uint32) *[EntryBytes]byte {
		var entry [EntryBytes]byte
		for i := 0; i < bpcWords; i++ {
			binary.LittleEndian.PutUint32(entry[4*i:], f(i))
		}
		return &entry
	}
	for n, v := range []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xDEADBEEF, 0xFFFFFFFF} {
		checkKernelsOnEntry(t, "every word equal", n, shape(func(int) uint32 { return v }))
	}
	// A borrow in every other lane: delta 2m is +0xFFFFFFFF, delta 2m+1 is
	// -0xFFFFFFFF, and every transition mask has bit 31 set.
	alt := shape(func(i int) uint32 { return -uint32(i & 1) })
	if p32, _, andE, _ := bpcFrontGo(alt, new([entryWordCount]uint64)); p32 != 0x2AAAAAAA || andE>>31&1 != 1 {
		t.Fatalf("alternating words: p32 %#x, andE %#x; want p32 0x2aaaaaaa and andE bit 31", p32, andE)
	}
	checkKernelsOnEntry(t, "alternating 0/0xFFFFFFFF", 0, alt)
	// A borrow in every lane: plane 32 is all 31 ones, andE bit 32 set.
	down := shape(func(i int) uint32 { return 0xF0000000 - uint32(i)*0x01234567 })
	if _, _, andE, _ := bpcFrontGo(down, new([entryWordCount]uint64)); andE>>32&1 != 1 {
		t.Fatalf("decreasing words: andE %#x, want bit 32 set", andE)
	}
	checkKernelsOnEntry(t, "decreasing words", 0, down)
	// Only word 31 non-zero: the absent delta 31 (word 0 - word 31 in the
	// kernel's lane 31) must stay out of every plane and aggregate.
	for n, v := range []uint32{1, 0x80000000, 0xFFFFFFFF} {
		checkKernelsOnEntry(t, "only word 31", n, shape(func(i int) uint32 { return v * uint32(i/31) }))
	}

	for _, g := range variedMixGens() {
		data := make([]byte, 512*EntryBytes)
		g.Fill(data, gen.NewRNG(47, 2))
		for n := 0; n < len(data)/EntryBytes; n++ {
			checkKernelsOnEntry(t, g.Name(), n, (*[EntryBytes]byte)(data[n*EntryBytes:]))
		}
	}
}

// checkKernelsOnEntry holds bpcFrontGFNI to bpcFrontGo on entry, then
// rebuilds the entry from the kernel's planes with both rebuilds.
func checkKernelsOnEntry(t *testing.T, what string, n int, entry *[EntryBytes]byte) {
	t.Helper()
	var want, got [entryWordCount]uint64
	wp32, worE, wandE, worD := bpcFrontGo(entry, &want)
	p32, orE, andE, orD := bpcFrontGFNI(entry, &got)
	if p32 != wp32 || orE != worE || andE != wandE || orD != worD {
		t.Fatalf("%s %d: gfni front (p32 %#x, orE %#x, andE %#x, orD %#x), butterfly (%#x, %#x, %#x, %#x) (entry %x)",
			what, n, p32, orE, andE, orD, wp32, worE, wandE, worD, entry[:])
	}
	need := orE &^ andE & orD
	for b := 0; b < 32; b++ {
		lane := uint(b&1) * 32
		if g, w := uint32(got[b>>1]>>lane), uint32(want[b>>1]>>lane); need>>uint(b)&1 == 1 && g != w {
			t.Fatalf("%s %d: plane %d: gfni %#x, butterfly %#x (entry %x)", what, n, b, g, w, entry[:])
		}
	}
	// The kernel transposes every plane; with plane 32 they are the stream's
	// DBX planes, from which the rebuild must give back the entry.
	var planes [bpcPlanes]uint32
	for b := 0; b < 32; b++ {
		planes[b] = uint32(got[b>>1] >> (uint(b&1) * 32))
	}
	planes[bpcPlanes-1] = p32
	if dst := checkBack(t, what, n, &planes, binary.LittleEndian.Uint32(entry[:])); dst != *entry {
		t.Fatalf("%s %d: rebuilt %x, want the entry %x", what, n, dst[:], entry[:])
	}
}

// checkBack holds bpcBackGFNI to bpcBackGo on planes and base, and returns
// the bytes they agree on.
func checkBack(t *testing.T, what string, n int, planes *[bpcPlanes]uint32, base uint32) [EntryBytes]byte {
	t.Helper()
	var want, got [EntryBytes]byte
	bpcBackGo(planes, base, &want)
	bpcBackGFNI(planes, base, &got)
	if got != want {
		t.Fatalf("%s %d: gfni back %x, butterfly %x (planes %x, base %#x)", what, n, got[:], want[:], planes[:], base)
	}
	return want
}
