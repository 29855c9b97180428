package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"buddy/internal/gen"
)

func entryOf(t *testing.T, g gen.Generator, seed uint64) []byte {
	t.Helper()
	e := make([]byte, EntryBytes)
	g.Fill(e, gen.NewRNG(seed, 1))
	return e
}

func allCodecs() []Codec { return Registry() }

// bitsOf, streamOf and decode are one-shot test helpers over the
// single-pass Codec surface (the legacy allocate-per-call methods are gone).
func bitsOf(c Codec, entry []byte) int {
	_, bits := c.AppendCompressed(nil, entry)
	return bits
}

func streamOf(c Codec, entry []byte) []byte {
	stream, _ := c.AppendCompressed(nil, entry)
	return stream
}

func decode(c Codec, comp []byte) ([]byte, error) {
	dst := make([]byte, EntryBytes)
	if err := c.DecompressInto(dst, comp); err != nil {
		return nil, err
	}
	return dst, nil
}

func TestRoundToClass(t *testing.T) {
	cases := []struct {
		size, want int
	}{
		{0, 0}, {1, 8}, {8, 8}, {9, 16}, {17, 32}, {33, 64},
		{65, 80}, {81, 96}, {97, 128}, {128, 128}, {200, 128},
	}
	for _, c := range cases {
		if got := RoundToClass(c.size, OptimisticSizes); got != c.want {
			t.Errorf("RoundToClass(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if got := RoundToClass(33, SectorSizes); got != 64 {
		t.Errorf("RoundToClass(33, sectors) = %d, want 64", got)
	}
	if got := RoundToClass(1, SectorSizes); got != 32 {
		t.Errorf("RoundToClass(1, sectors) = %d, want 32", got)
	}
}

func TestSectorsNeeded(t *testing.T) {
	zero := make([]byte, EntryBytes)
	bpc := NewBPC()
	if got := SectorsNeeded(bpc, zero); got != 0 {
		t.Errorf("all-zero entry should need 0 sectors (zero-page), got %d", got)
	}
	rnd := make([]byte, EntryBytes)
	gen.Random{}.Fill(rnd, gen.NewRNG(7, 1))
	if got := SectorsNeeded(bpc, rnd); got != 4 {
		t.Errorf("random entry should need 4 sectors, got %d", got)
	}
}

func TestRoundTripAllCompressorsStructured(t *testing.T) {
	gens := []gen.Generator{
		gen.Zeros{},
		gen.Ramp{Start: -100, Step: 3},
		gen.Ramp{Start: 1 << 30, Step: -7},
		gen.Noisy32{NoiseBits: 4, SmoothStep: 17},
		gen.Noisy32{NoiseBits: 12, SmoothStep: 1},
		gen.Noisy64{NoiseBits: 8, HiStep: 2},
		gen.Random{},
		gen.Sparse32{Density: 0.4, Sigma: 1},
		gen.Weights32{Sigma: 0.02},
		gen.Weights32{Sigma: 0.02, QuantBits: 12},
		gen.Stripe{A: gen.Zeros{}, B: gen.Random{}, PeriodEntries: 2, AEntries: 1},
	}
	for _, c := range allCodecs() {
		for gi, g := range gens {
			for seed := uint64(0); seed < 8; seed++ {
				entry := entryOf(t, g, seed*13+uint64(gi))
				comp := streamOf(c, entry)
				got, err := decode(c, comp)
				if err != nil {
					t.Fatalf("%s/%s seed %d: decompress error: %v", c.Name(), g.Name(), seed, err)
				}
				if !bytes.Equal(got, entry) {
					t.Fatalf("%s/%s seed %d: round-trip mismatch", c.Name(), g.Name(), seed)
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range allCodecs() {
		c := c
		f := func(raw [EntryBytes]byte) bool {
			entry := raw[:]
			got, err := decode(c, streamOf(c, entry))
			return err == nil && bytes.Equal(got, entry)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCompressedBitsMatchesCompress(t *testing.T) {
	// CompressedBits must equal the emitted payload (excluding the 1-bit
	// framing flag, which is metadata in hardware), capped at 1024.
	gens := []gen.Generator{
		gen.Zeros{}, gen.Ramp{Step: 5}, gen.Noisy32{NoiseBits: 9},
		gen.Random{}, gen.Weights32{Sigma: 0.5},
	}
	for _, c := range allCodecs() {
		for _, g := range gens {
			entry := entryOf(t, g, 99)
			bits := bitsOf(c, entry)
			if bits < 0 || bits > EntryBytes*8 {
				t.Errorf("%s/%s: CompressedBits out of range: %d", c.Name(), g.Name(), bits)
			}
		}
	}
}

func TestCompressedBitsDeterministic(t *testing.T) {
	for _, c := range allCodecs() {
		entry := entryOf(t, gen.Noisy32{NoiseBits: 7, SmoothStep: 3}, 5)
		a := bitsOf(c, entry)
		b := bitsOf(c, entry)
		if a != b {
			t.Errorf("%s: nondeterministic size %d vs %d", c.Name(), a, b)
		}
	}
}

func TestBPCKnownPatterns(t *testing.T) {
	bpc := NewBPC()

	zero := make([]byte, EntryBytes)
	if got := bitsOf(bpc, zero); got > 16 {
		t.Errorf("all-zero entry should compress to a few bits, got %d", got)
	}

	// A constant int32 ramp: all deltas equal, so one DBX plane per set bit
	// of the delta at most; must compress far below one sector.
	ramp := make([]byte, EntryBytes)
	gen.Ramp{Start: 1000, Step: 4}.Fill(ramp, gen.NewRNG(1, 1))
	if got := bitsOf(bpc, ramp); got > 32*8 {
		t.Errorf("constant-stride ramp should fit in one sector, got %d bits", got)
	}

	// Random data must fall back to raw.
	rnd := make([]byte, EntryBytes)
	gen.Random{}.Fill(rnd, gen.NewRNG(2, 1))
	if got := bitsOf(bpc, rnd); got != EntryBytes*8 {
		t.Errorf("random entry should be raw (1024 bits), got %d", got)
	}
}

func TestBPCOrderingSensitivity(t *testing.T) {
	// BPC is a delta transform: a sorted sequence must compress much better
	// than the same values shuffled.
	sorted := make([]byte, EntryBytes)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(sorted[i*4:], uint32(i*1000))
	}
	shuffled := make([]byte, EntryBytes)
	perm := gen.NewRNG(3, 1).Perm(32)
	for i, p := range perm {
		binary.LittleEndian.PutUint32(shuffled[i*4:], uint32(p*1000))
	}
	bpc := NewBPC()
	if s, sh := bitsOf(bpc, sorted), bitsOf(bpc, shuffled); s >= sh {
		t.Errorf("sorted (%d bits) should compress better than shuffled (%d bits)", s, sh)
	}
}

func TestBPCHomogeneousBeatsHeterogeneous(t *testing.T) {
	// §3.1: BPC works well for homogeneous data; interleaving two types
	// hurts. Build a homogeneous float32 entry and a struct-like mix.
	homog := make([]byte, EntryBytes)
	gen.Weights32{Sigma: 0.02, QuantBits: 14}.Fill(homog, gen.NewRNG(11, 1))
	mixed := make([]byte, EntryBytes)
	r := gen.NewRNG(12, 1)
	for i := 0; i < 32; i++ {
		var w uint32
		if i%2 == 0 {
			w = uint32(i) // int field
		} else {
			w = r.Uint32() // hash/pointer field
		}
		binary.LittleEndian.PutUint32(mixed[i*4:], w)
	}
	bpc := NewBPC()
	if h, m := bitsOf(bpc, homog), bitsOf(bpc, mixed); h >= m {
		t.Errorf("homogeneous (%d bits) should beat heterogeneous (%d bits)", h, m)
	}
}

func TestBDIKnownPatterns(t *testing.T) {
	bdi := NewBDI()
	rep := make([]byte, EntryBytes)
	for i := 0; i < EntryBytes; i += 8 {
		binary.LittleEndian.PutUint64(rep[i:], 0xDEADBEEFCAFEF00D)
	}
	if got := bitsOf(bdi, rep); got != 68 {
		t.Errorf("repeated-8 entry: got %d bits, want 68", got)
	}

	// Small values near a large base: qualifies for base8-delta1 (26 B + id).
	near := make([]byte, EntryBytes)
	base := uint64(1) << 40
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(near[i*8:], base+uint64(i))
	}
	const want = 4 + 64 + 16 + 16*8 // the encoding's id, the base, a mask bit and an 8-bit delta per element
	if got := bitsOf(bdi, near); got != want {
		t.Errorf("base8-delta1 entry: got %d bits, want %d", got, want)
	}
}

func TestBDIImmediateDualBase(t *testing.T) {
	// Mix of small immediates and values near one large base must still
	// compress (this is the "immediate" in BDI).
	bdi := NewBDI()
	e := make([]byte, EntryBytes)
	base := uint64(0x123456789A) // needs > 4 bytes
	for i := 0; i < 16; i++ {
		v := base + uint64(i)
		if i%3 == 0 {
			v = uint64(i) // small immediate
		}
		binary.LittleEndian.PutUint64(e[i*8:], v)
	}
	if got := bitsOf(bdi, e); got >= EntryBytes*8 {
		t.Errorf("dual-base entry should compress, got %d bits", got)
	}
}

func TestFPCKnownPatterns(t *testing.T) {
	fpc := NewFPC()
	zero := make([]byte, EntryBytes)
	// 32 zero words = 4 runs of 8 -> 4 * 6 bits.
	if got := bitsOf(fpc, zero); got != 24 {
		t.Errorf("zero entry: got %d bits, want 24", got)
	}
	small := make([]byte, EntryBytes)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(small[i*4:], uint32(i%8))
	}
	if got := bitsOf(fpc, small); got >= 32*16 {
		t.Errorf("small-value entry should compress well, got %d bits", got)
	}
}

func TestCPackDictionary(t *testing.T) {
	cp := NewCPack()
	e := make([]byte, EntryBytes)
	// Repeating a handful of distinct words exercises full dictionary hits.
	vals := []uint32{0xAABBCCDD, 0x11223344, 0x99887766}
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(e[i*4:], vals[i%len(vals)])
	}
	bits := bitsOf(cp, e)
	// 3 raw (34 bits) + 29 full matches (6 bits) = 276.
	if bits != 3*34+29*6 {
		t.Errorf("dictionary entry: got %d bits, want %d", bits, 3*34+29*6)
	}
}

func TestFVCDictionary(t *testing.T) {
	fvc := NewFVC()
	e := make([]byte, EntryBytes)
	// One repeated value dominates: dictionary of 1, 32 hits.
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(e[i*4:], 0xCAFEBABE)
	}
	// 3 (count) + 32 (dict) + 32 x (1+3) = 163 bits.
	if got := bitsOf(fvc, e); got != 3+32+32*4 {
		t.Errorf("repeated-value entry: got %d bits, want %d", got, 3+32+32*4)
	}
	// All-distinct words: dictionary empty, every word a miss -> raw cap.
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(e[i*4:], uint32(i)*2654435761)
	}
	if got := bitsOf(fvc, e); got != EntryBytes*8 {
		t.Errorf("distinct-word entry: got %d bits, want raw", got)
	}
}

func TestZeroCompressor(t *testing.T) {
	z := Zero{}
	zero := make([]byte, EntryBytes)
	if got := bitsOf(z, zero); got != 0 {
		t.Errorf("zero entry: got %d bits, want 0", got)
	}
	nz := make([]byte, EntryBytes)
	nz[127] = 1
	if got := bitsOf(z, nz); got != EntryBytes*8 {
		t.Errorf("non-zero entry: got %d bits, want raw", got)
	}
}

func TestOptimisticSize(t *testing.T) {
	bpc := NewBPC()
	zero := make([]byte, EntryBytes)
	if got := OptimisticSize(bpc, zero); got != 0 {
		t.Errorf("zero entry optimistic size = %d, want 0", got)
	}
	rnd := make([]byte, EntryBytes)
	gen.Random{}.Fill(rnd, gen.NewRNG(4, 1))
	if got := OptimisticSize(bpc, rnd); got != 128 {
		t.Errorf("random entry optimistic size = %d, want 128", got)
	}
}

func TestCompressorRanking(t *testing.T) {
	// §2.4: BPC was chosen for its high ratios on GPU-typical data. Verify
	// BPC's aggregate compressed size over a suite of GPU-typical patterns
	// is the smallest among the implemented algorithms. (Individual entries
	// may favor a baseline; the paper's claim is aggregate.)
	suite := []gen.Generator{
		gen.Noisy64{NoiseBits: 6, HiStep: 1},
		gen.Noisy64{NoiseBits: 14, HiStep: 2},
		gen.Noisy32{NoiseBits: 10, SmoothStep: 3},
		gen.Sparse32{Density: 0.5, Sigma: 1},
		gen.Weights32{Sigma: 0.02, QuantBits: 10},
		gen.Ramp{Step: 12},
	}
	total := func(c Codec) int {
		sum := 0
		for gi, g := range suite {
			for seed := uint64(0); seed < 4; seed++ {
				sum += bitsOf(c, entryOf(t, g, seed*31+uint64(gi)))
			}
		}
		return sum
	}
	bpc := total(NewBPC())
	for _, c := range []Codec{NewBDI(), NewFPC(), NewFVC(), NewCPack()} {
		if other := total(c); bpc >= other {
			t.Errorf("BPC (%d bits total) should beat %s (%d bits total) on GPU-typical suite", bpc, c.Name(), other)
		}
	}
}

func BenchmarkBPCCompress(b *testing.B) {
	entry := make([]byte, EntryBytes)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(entry, gen.NewRNG(1, 1))
	bpc := NewBPC()
	b.SetBytes(EntryBytes)
	for i := 0; i < b.N; i++ {
		bitsOf(bpc, entry)
	}
}
