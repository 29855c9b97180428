package compress

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzEntry pads or truncates fuzz input to exactly one 128 B entry so the
// engine explores the full structural space without tripping the length
// contract.
func fuzzEntry(data []byte) []byte {
	entry := make([]byte, EntryBytes)
	copy(entry, data)
	return entry
}

// FuzzRoundTrip drives every codec over arbitrary entries: the single-pass
// stream must decode bit-exactly, encode deterministically, report
// in-range metadata bits, size identically through a Sizer (the size-only
// kernel where the codec has one), equal the preserved reference encoder's
// stream byte for byte, and reject every truncated prefix with ErrCorrupt.
// Each input runs under every BPC kernel set this CPU has, and the sets'
// BPC streams must be the same bytes.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, EntryBytes))
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03}, EntryBytes/4))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7, 8})
	ramp := make([]byte, EntryBytes)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(ramp)
	// Sparsity-structured seeds: the word-kernel fast paths (all-zero
	// short-circuit, zero-run delta skip, run-length plane codes) branch on
	// exactly these shapes.
	f.Add(make([]byte, EntryBytes)) // all-zero entry
	oneBit := make([]byte, EntryBytes)
	oneBit[77] = 0x10 // single set bit mid-entry
	f.Add(oneBit)
	sparse90 := make([]byte, EntryBytes)
	for _, i := range []int{12, 13, 40, 41, 88, 89} { // ~90% of halfwords zero
		sparse90[i] = byte(0x3C + i)
	}
	f.Add(sparse90)
	roundTrip := func(t *testing.T, data []byte) {
		entry := fuzzEntry(data)
		dst := make([]byte, EntryBytes)
		for _, c := range Registry() {
			stream, bits := c.AppendCompressed(nil, entry)
			if bits < 0 || bits > EntryBytes*8 {
				t.Fatalf("%s: bits %d out of range", c.Name(), bits)
			}
			if len(stream) > MaxStreamBytes {
				t.Fatalf("%s: stream %d B exceeds MaxStreamBytes", c.Name(), len(stream))
			}
			if err := c.DecompressInto(dst, stream); err != nil {
				t.Fatalf("%s: DecompressInto: %v", c.Name(), err)
			}
			if !bytes.Equal(dst, entry) {
				t.Fatalf("%s: round-trip mismatch", c.Name())
			}
			if _, again := c.AppendCompressed(nil, entry); again != bits {
				t.Fatalf("%s: nondeterministic bits %d != %d", c.Name(), again, bits)
			}
			if got := NewSizer(c).Bits(entry); got != bits {
				t.Fatalf("%s: Sizer.Bits %d != encoded bits %d", c.Name(), got, bits)
			}
			if ref, _ := refAppend(c, nil, entry); !bytes.Equal(stream, ref) {
				t.Fatalf("%s: stream differs from reference\n got %x\nwant %x", c.Name(), stream, ref)
			}
			for _, cut := range []int{0, len(stream) / 2, len(stream) - 1} {
				if cut < 0 || cut >= len(stream) {
					continue
				}
				if err := c.DecompressInto(dst, stream[:cut]); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: truncation to %d/%d bytes: got %v, want ErrCorrupt",
						c.Name(), cut, len(stream), err)
				}
			}
			// Restore dst for the next codec (truncated decodes scribble).
			if err := c.DecompressInto(dst, stream); err != nil {
				t.Fatalf("%s: re-decode: %v", c.Name(), err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first []byte
		for _, k := range bpcKernels() {
			if !selectKernel(t, k) {
				continue
			}
			t.Logf("bpc kernels: %s", k)
			roundTrip(t, data)
			stream, _ := NewBPC().AppendCompressed(nil, fuzzEntry(data))
			if first == nil {
				first = stream
			} else if !bytes.Equal(stream, first) {
				t.Fatalf("bpc: kernels %s and %s encode differently\n%x\n%x", bpcKernels()[0], k, first, stream)
			}
		}
	})
}

// FuzzDecompressArbitrary feeds arbitrary bytes to every decoder: it must
// either decode into some entry or return ErrCorrupt — never panic, never
// read out of bounds. The no-over-read half is checked, not assumed: each
// stream is decoded twice, once as a standalone copy and once as the prefix
// (len < cap) of a buffer whose suffix is a canary pattern, and the two
// outcomes — error class and the 128 bytes left in dst — must agree. A
// decoder that peeks past len(comp) sees the canary in one and not the other.
// Each input is decoded under every BPC kernel set this CPU has, and the
// sets must agree on both too.
func FuzzDecompressArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add(bytes.Repeat([]byte{0x55}, 192))
	f.Add(make([]byte, 132))        // all-zero stream: zero frame bits + padding
	f.Add([]byte{0x00, 0x80})       // short stream with one set bit
	f.Add([]byte{0x40, 0x00, 0x01}) // sparse stream: run codes then a one
	type outcome struct {
		err error
		dst [EntryBytes]byte
	}
	decode := func(t *testing.T, comp []byte, got []outcome) {
		const canaryLen = 64
		alone := make([]byte, len(comp))
		copy(alone, comp)
		framed := make([]byte, len(comp)+canaryLen)
		copy(framed, comp)
		canary := framed[len(comp):]
		for i := range canary {
			canary[i] = 0xA5 ^ byte(i)
		}
		want := bytes.Clone(canary)
		dst, dstFramed := make([]byte, EntryBytes), make([]byte, EntryBytes)
		for i, c := range Registry() {
			clear(dst)
			clear(dstFramed)
			err := c.DecompressInto(dst, alone)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: unexpected error class: %v", c.Name(), err)
			}
			errFramed := c.DecompressInto(dstFramed, framed[:len(comp)])
			if !errors.Is(errFramed, err) || !bytes.Equal(dstFramed, dst) {
				t.Fatalf("%s: decode depends on bytes past len(comp): standalone (%v, %x), canary-suffixed (%v, %x)",
					c.Name(), err, dst, errFramed, dstFramed)
			}
			if !bytes.Equal(canary, want) {
				t.Fatalf("%s: decoder wrote past len(comp)", c.Name())
			}
			got[i] = outcome{err: err, dst: [EntryBytes]byte(dst)}
		}
	}
	f.Fuzz(func(t *testing.T, comp []byte) {
		var first []outcome
		for _, k := range bpcKernels() {
			if !selectKernel(t, k) {
				continue
			}
			got := make([]outcome, len(Registry()))
			decode(t, comp, got)
			if first == nil {
				first = got
				continue
			}
			for i, c := range Registry() {
				if !errors.Is(got[i].err, first[i].err) || got[i].dst != first[i].dst {
					t.Fatalf("%s: kernels %s and %s disagree: (%v, %x) vs (%v, %x)",
						c.Name(), bpcKernels()[0], k, first[i].err, first[i].dst, got[i].err, got[i].dst)
				}
			}
		}
	})
}
