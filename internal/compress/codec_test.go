package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"buddy/internal/gen"
)

// codecGens spans the structural space: zeros, ramps, noisy numerics, raw
// random (the incompressible fallback), sparse and quantized weights.
func codecGens() []gen.Generator {
	return []gen.Generator{
		gen.Zeros{},
		gen.Ramp{Start: -100, Step: 3},
		gen.Noisy32{NoiseBits: 4, SmoothStep: 17},
		gen.Noisy64{NoiseBits: 8, HiStep: 2},
		gen.Random{},
		gen.Sparse32{Density: 0.4, Sigma: 1},
		gen.Weights32{Sigma: 0.02, QuantBits: 12},
	}
}

// TestAppendCompressedDeterministic pins the encode contract: repeated
// AppendCompressed passes over the same entry must produce identical
// streams and bit counts (the profiler and index builder depend on it).
func TestAppendCompressedDeterministic(t *testing.T) {
	for _, c := range allCodecs() {
		for gi, g := range codecGens() {
			for seed := uint64(0); seed < 4; seed++ {
				entry := entryOf(t, g, seed*17+uint64(gi))
				stream, bits := c.AppendCompressed(nil, entry)
				again, bits2 := c.AppendCompressed(nil, entry)
				if !bytes.Equal(stream, again) {
					t.Fatalf("%s/%s: nondeterministic stream", c.Name(), g.Name())
				}
				if bits != bits2 {
					t.Fatalf("%s/%s: nondeterministic bits %d vs %d",
						c.Name(), g.Name(), bits, bits2)
				}
			}
		}
	}
}

// TestAppendCompressedAppends verifies the append contract: existing dst
// bytes are preserved and the stream begins at the next byte boundary.
func TestAppendCompressedAppends(t *testing.T) {
	prefix := []byte{0xDE, 0xAD, 0xBE}
	for _, c := range allCodecs() {
		entry := entryOf(t, gen.Noisy32{NoiseBits: 6, SmoothStep: 5}, 3)
		solo, bits := c.AppendCompressed(nil, entry)
		dst := append([]byte(nil), prefix...)
		combined, bits2 := c.AppendCompressed(dst, entry)
		if bits != bits2 {
			t.Fatalf("%s: bits differ with prefix: %d vs %d", c.Name(), bits, bits2)
		}
		if !bytes.Equal(combined[:len(prefix)], prefix) {
			t.Fatalf("%s: prefix clobbered", c.Name())
		}
		if !bytes.Equal(combined[len(prefix):], solo) {
			t.Fatalf("%s: appended stream differs from standalone stream", c.Name())
		}
	}
}

// TestDecompressIntoRoundTrips pins the decode path over every generator
// shape.
func TestDecompressIntoRoundTrips(t *testing.T) {
	dst := make([]byte, EntryBytes)
	for _, c := range allCodecs() {
		for gi, g := range codecGens() {
			entry := entryOf(t, g, 7+uint64(gi))
			stream, _ := c.AppendCompressed(nil, entry)
			if err := c.DecompressInto(dst, stream); err != nil {
				t.Fatalf("%s/%s: DecompressInto: %v", c.Name(), g.Name(), err)
			}
			if !bytes.Equal(dst, entry) {
				t.Fatalf("%s/%s: DecompressInto round-trip mismatch", c.Name(), g.Name())
			}
		}
	}
}

// TestTruncatedStreamsReturnErrCorrupt: every proper byte-prefix of a valid
// stream must fail decoding — the decoder needs more bits than any shorter
// prefix holds, and every decoder checks for overrun.
func TestTruncatedStreamsReturnErrCorrupt(t *testing.T) {
	dst := make([]byte, EntryBytes)
	for _, c := range allCodecs() {
		for gi, g := range codecGens() {
			entry := entryOf(t, g, 11+uint64(gi))
			stream, _ := c.AppendCompressed(nil, entry)
			for cut := 0; cut < len(stream); cut++ {
				if err := c.DecompressInto(dst, stream[:cut]); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s/%s: truncation to %d/%d bytes: got %v, want ErrCorrupt",
						c.Name(), g.Name(), cut, len(stream), err)
				}
			}
		}
	}
}

// TestCodecSteadyStateZeroAlloc proves the tentpole property: with a reused
// scratch buffer, compress and decompress allocate nothing for any codec on
// any data shape.
func TestCodecSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	dst := make([]byte, EntryBytes)
	scratch := make([]byte, 0, MaxStreamBytes)
	for _, c := range allCodecs() {
		for gi, g := range codecGens() {
			entry := entryOf(t, g, 23+uint64(gi))
			if n := testing.AllocsPerRun(50, func() {
				stream, _ := c.AppendCompressed(scratch[:0], entry)
				scratch = stream[:0]
			}); n != 0 {
				t.Errorf("%s/%s: AppendCompressed allocates %.1f/op, want 0", c.Name(), g.Name(), n)
			}
			stream, _ := c.AppendCompressed(scratch[:0], entry)
			if n := testing.AllocsPerRun(50, func() {
				if err := c.DecompressInto(dst, stream); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s/%s: DecompressInto allocates %.1f/op, want 0", c.Name(), g.Name(), n)
			}
		}
	}
}

// TestSectorsForBits pins the metadata quantization, including the 63-bit
// zero-page boundary (payload + 1-bit framing must fit 64 bits).
func TestSectorsForBits(t *testing.T) {
	cases := []struct{ bits, want int }{
		{0, 0}, {1, 0}, {62, 0}, {63, 0}, {64, 1}, {256, 1},
		{257, 2}, {512, 2}, {513, 3}, {768, 3}, {769, 4}, {1024, 4},
	}
	for _, tc := range cases {
		if got := SectorsForBits(tc.bits); got != tc.want {
			t.Errorf("SectorsForBits(%d) = %d, want %d", tc.bits, got, tc.want)
		}
	}
}

// TestSizerMatchesSectorsNeeded: the reusable Sizer and the one-shot
// helpers must agree entry by entry.
func TestSizerMatchesSectorsNeeded(t *testing.T) {
	for _, c := range allCodecs() {
		sz := NewSizer(c)
		for gi, g := range codecGens() {
			entry := entryOf(t, g, 31+uint64(gi))
			if got, want := sz.Sectors(entry), SectorsNeeded(c, entry); got != want {
				t.Errorf("%s/%s: Sizer.Sectors = %d, SectorsNeeded = %d", c.Name(), g.Name(), got, want)
			}
			if got, want := sz.Bits(entry), bitsOf(c, entry); got != want {
				t.Errorf("%s/%s: Sizer.Bits = %d, one-shot bits = %d", c.Name(), g.Name(), got, want)
			}
		}
	}
}

// TestBPCBitsShapeSweep drives the closed-form size kernel against the
// encoder over a million-odd seeded entries built to flip plane classes:
// every code length in BPC.Bits is a popcount over an aggregate, so the
// shapes walk each aggregate's decision boundary — zero-run starts and
// isolated runs (steps at every bit position), the one/two-adjacent/raw
// split of the counters (one step, two adjacent steps, two separated steps,
// alternating words), all-ones and DBP-zero planes (alternation, ramps), and
// the 1024-bit cap (wide noise, pure random).
func TestBPCBitsShapeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-entry sweep")
	}
	bpc := NewBPC()
	sz := NewSizer(bpc)
	scratch := make([]byte, 0, MaxStreamBytes)
	entry := make([]byte, EntryBytes)
	words := func(f func(i int) uint32) {
		for i := 0; i < bpcWords; i++ {
			binary.LittleEndian.PutUint32(entry[i*4:], f(i))
		}
	}
	checked := 0
	check := func(shape string) {
		t.Helper()
		stream, want := bpc.AppendCompressed(scratch[:0], entry)
		scratch = stream[:0]
		if got := sz.Bits(entry); got != want {
			t.Fatalf("%s: Sizer.Bits = %d, AppendCompressed = %d\nentry %x", shape, got, want, entry)
		}
		checked++
	}
	r := gen.NewRNG(2020, 16)

	// Steps at every bit position and every word position, on a flat and on
	// a ramped background, rising and falling.
	for bit := uint(0); bit < 32; bit++ {
		for pos := 1; pos < bpcWords; pos++ {
			for _, slope := range []uint32{0, 1, 0xFFFFFFFD} {
				for _, step := range []uint32{1 << bit, -(1 << bit)} {
					base := r.Uint32() >> (r.Uint32() & 31)
					at := func(i int) uint32 { return base + uint32(i)*slope }
					words(func(i int) uint32 { // one step
						if i >= pos {
							return at(i) + step
						}
						return at(i)
					})
					check("one-step")
					words(func(i int) uint32 { // two adjacent steps
						return at(i) + step*uint32(min(max(i-pos+1, 0), 2))
					})
					check("two-adjacent-steps")
					far := 1 + r.Intn(bpcWords-1)
					words(func(i int) uint32 { // two steps anywhere
						v := at(i)
						if i >= pos {
							v += step
						}
						if i >= far {
							v += step
						}
						return v
					})
					check("two-steps")
					words(func(i int) uint32 { return at(i) ^ step*uint32((i+pos)&1) })
					check("alternating")
				}
			}
		}
	}
	// Ramps under 0..24 bits of noise.
	for nb := uint(0); nb <= 24; nb++ {
		for n := 0; n < 20480; n++ {
			base, step := r.Uint32()>>(r.Uint32()&31), r.Uint32()>>(8+r.Uint32()&23)
			words(func(i int) uint32 { return base + uint32(i)*step + r.Uint32()&(1<<nb-1) })
			check("noisy-ramp")
		}
	}
	// At most six non-zero bytes.
	for n := 0; n < 200000; n++ {
		clear(entry)
		for k := r.Intn(7); k > 0; k-- {
			entry[r.Intn(EntryBytes)] = byte(r.Uint32())
		}
		check("sparse")
	}
	// Two to four distinct words.
	for n := 0; n < 200000; n++ {
		var dict [4]uint32
		for k := range dict {
			dict[k] = r.Uint32() >> (r.Uint32() & 31)
		}
		k := 2 + r.Intn(3)
		words(func(int) uint32 { return dict[r.Intn(k)] })
		check("few-distinct")
	}
	// Float-like words with quantized mantissas, then pure random.
	for _, g := range []gen.Generator{
		gen.Weights32{Sigma: 1}, gen.Weights32{Sigma: 0.01, QuantBits: 4}, gen.Weights32{Sigma: 0.05, QuantBits: 8},
		gen.Weights32{Sigma: 0.02, QuantBits: 12}, gen.Weights32{Sigma: 1, QuantBits: 16}, gen.Weights32{Sigma: 3, QuantBits: 20},
		gen.SparseFP16{ZeroFrac: 0.7}, gen.Random{},
	} {
		for n := 0; n < 24576; n++ {
			g.Fill(entry, r)
			check(g.Name())
		}
	}
	if checked < 1<<20 {
		t.Fatalf("sweep covered %d entries, want >= %d", checked, 1<<20)
	}
}

// TestBitWriterChunked exercises the chunked writer/reader against straddled
// and aligned patterns of every width.
func TestBitWriterChunked(t *testing.T) {
	var w BitWriter
	w.Reset(nil)
	vals := []struct {
		v uint64
		n int
	}{
		{1, 1}, {0x2A, 7}, {0xFFFF, 16}, {0, 3}, {0x123456789ABCDEF0, 64},
		{5, 3}, {0xFF, 8}, {1, 1}, {0x7FFFFFFF, 31}, {0xCAFE, 33},
	}
	total := 0
	for _, tc := range vals {
		w.WriteBits(tc.v, tc.n)
		total += tc.n
	}
	if w.Len() != total {
		t.Fatalf("Len = %d, want %d", w.Len(), total)
	}
	r := NewBitReader(w.Bytes())
	for i, tc := range vals {
		want := tc.v
		if tc.n < 64 {
			want &= 1<<uint(tc.n) - 1
		}
		if got := r.ReadBits(tc.n); got != want {
			t.Fatalf("value %d: read %#x, want %#x", i, got, want)
		}
	}
	if r.Overrun() {
		t.Fatal("unexpected overrun")
	}
}

// TestBitWriterAppendsToPrefix pins Reset-onto-existing-buffer semantics.
func TestBitWriterAppendsToPrefix(t *testing.T) {
	prefix := []byte{1, 2, 3}
	var w BitWriter
	w.Reset(prefix)
	if w.Len() != 24 {
		t.Fatalf("Len after Reset = %d, want 24", w.Len())
	}
	w.WriteBits(0xAB, 8)
	out := w.Bytes()
	if !bytes.Equal(out, []byte{1, 2, 3, 0xAB}) {
		t.Fatalf("Bytes = %v", out)
	}
}
