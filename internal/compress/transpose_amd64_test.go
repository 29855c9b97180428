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
// pure-Go twins. bpcFrontGFNI must return bpcFrontGo's p32, orE, andE, orD,
// every pair code and length and their total; bpcBackGFNI must write
// bpcBackGo's 128 bytes, and both must rebuild each entry from its DBX
// planes. The inputs are 131 072 random matrices, each used as an entry and
// as the DBP rows the rebuild transposes — every other one with word pairs
// cleared, rows 16 apart, then rows 8 apart, so the butterfly's skip
// branches for all-zero pairs run too — then the shapes the kernels' masks
// and compares single out, the plane classes the codes branch on (zero runs
// across a pair boundary and over all 33 planes; plane 32 raw, short, a
// run's top and inside one), streams of exactly 1023 and 1024 bits, and
// entries of each VariedMix generator.
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
	if p32, _, andE, _, _ := bpcFrontGo(alt, new(bpcCodes)); p32 != 0x2AAAAAAA || andE>>31&1 != 1 {
		t.Fatalf("alternating words: p32 %#x, andE %#x; want p32 0x2aaaaaaa and andE bit 31", p32, andE)
	}
	checkKernelsOnEntry(t, "alternating 0/0xFFFFFFFF", 0, alt)
	// A borrow in every lane: plane 32 is all 31 ones, andE bit 32 set.
	down := shape(func(i int) uint32 { return 0xF0000000 - uint32(i)*0x01234567 })
	if _, _, andE, _, _ := bpcFrontGo(down, new(bpcCodes)); andE>>32&1 != 1 {
		t.Fatalf("decreasing words: andE %#x, want bit 32 set", andE)
	}
	checkKernelsOnEntry(t, "decreasing words", 0, down)
	// Only word 31 non-zero: the absent delta 31 (word 0 - word 31 in the
	// kernel's lane 31) must stay out of every plane and aggregate.
	for n, v := range []uint32{1, 0x80000000, 0xFFFFFFFF} {
		checkKernelsOnEntry(t, "only word 31", n, shape(func(i int) uint32 { return v * uint32(i/31) }))
	}

	// Plane classes. Each case checks on the reference's planes that it has
	// the shape it names, then holds the kernels to each other.
	const r1, r2 = 0x2B5A1C37, 0x1F00A5D3
	// falls makes plane 32, the borrow mask, exactly the deltas in neg: each
	// of those is -3, every other delta +5.
	falls := func(neg ...int) *[EntryBytes]byte {
		w := uint32(1 << 30)
		return shape(func(i int) uint32 {
			if i > 0 {
				w += 5
				for _, d := range neg {
					if d == i-1 {
						w -= 8
					}
				}
			}
			return w
		})
	}
	for _, tc := range []struct {
		name  string
		entry *[EntryBytes]byte
		want  map[int]string // plane -> code
	}{
		{"run across a pair boundary", (*[EntryBytes]byte)(bpcEntryOfPlanes(0x1000, [16]uint32{6: r1, 1: r2})),
			map[int]string{6: "raw", 5: "zero", 4: "zero", 3: "zero", 2: "zero", 1: "raw", 0: "zero"}},
		{"run of 33", shape(func(int) uint32 { return 0x1234 }), map[int]string{32: "zero", 16: "zero", 0: "zero"}},
		{"plane 32 raw", falls(0, 2, 5, 9), map[int]string{32: "raw"}},
		{"plane 32 one", falls(7), map[int]string{32: "one"}},
		{"plane 32 two", falls(7, 8), map[int]string{32: "two"}},
		{"plane 32 run of one", shape(func(i int) uint32 { return 0x80000000 * uint32(min(i, 1)) }),
			map[int]string{32: "zero", 31: "one"}},
		{"plane 32 inside a run", falls(), map[int]string{32: "zero", 31: "zero", 3: "zero"}},
	} {
		for b, want := range tc.want {
			if got := refBPCPlaneCode(tc.entry[:], b); got != want {
				t.Fatalf("%s: plane %d is %s, want %s", tc.name, b, got, want)
			}
		}
		checkKernelsOnEntry(t, tc.name, 0, tc.entry)
	}
	// The raw fallback's edge: a stream of 1023 bits goes out compressed,
	// one of 1024 takes the raw frame.
	for _, want := range []int{bpcRawBits - 1, bpcRawBits} {
		entry := bpcEntryOfBits(t, want)
		if got := checkKernelsOnEntry(t, "stream length", want, entry); got != want {
			t.Fatalf("stream of %d bits: the kernels total %d", want, got)
		}
	}

	for _, g := range variedMixGens() {
		data := make([]byte, 512*EntryBytes)
		g.Fill(data, gen.NewRNG(47, 2))
		for n := 0; n < len(data)/EntryBytes; n++ {
			checkKernelsOnEntry(t, g.Name(), n, (*[EntryBytes]byte)(data[n*EntryBytes:]))
		}
	}
}

// checkKernelsOnEntry holds bpcFrontGFNI to bpcFrontGo on entry, rebuilds
// the entry from its DBX planes with both rebuilds, and returns the
// uncapped stream length the kernel's codes give.
func checkKernelsOnEntry(t *testing.T, what string, n int, entry *[EntryBytes]byte) int {
	t.Helper()
	var want, got bpcCodes
	wp32, worE, wandE, worD, wtotal := bpcFrontGo(entry, &want)
	p32, orE, andE, orD, total := bpcFrontGFNI(entry, &got)
	if p32 != wp32 || orE != worE || andE != wandE || orD != worD || total != wtotal {
		t.Fatalf("%s %d: gfni front (p32 %#x, orE %#x, andE %#x, orD %#x, total %d), butterfly (%#x, %#x, %#x, %#x, %d) (entry %x)",
			what, n, p32, orE, andE, orD, total, wp32, worE, wandE, worD, wtotal, entry[:])
	}
	for m := range got.pair {
		if got.pair[m] != want.pair[m] || got.n[m] != want.n[m] {
			t.Fatalf("%s %d: planes %d and %d: gfni code %#x (%d bits), butterfly %#x (%d bits) (entry %x)",
				what, n, 2*m+1, 2*m, got.pair[m], got.n[m], want.pair[m], want.n[m], entry[:])
		}
	}
	base, dbp := refBPCPlanesOf(entry[:])
	var planes [bpcPlanes]uint32
	for b := range planes {
		planes[b] = dbp[b] ^ dbp[b+1]
	}
	if dst := checkBack(t, what, n, &planes, base); dst != *entry {
		t.Fatalf("%s %d: rebuilt %x, want the entry %x", what, n, dst[:], entry[:])
	}
	_, hn := bpcBaseCode(base)
	_, n32 := bpcPlane32Code(p32, orE, andE, orD)
	return hn + n32 + total
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
