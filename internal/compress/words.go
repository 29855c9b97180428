package compress

import (
	"bytes"
	"encoding/binary"
)

// The word view: every codec kernel operates on the 128 B entry as sixteen
// little-endian 64-bit words loaded once up front, instead of re-reading
// bytes (or single bits) from the entry as it scans. The view is unsafe-free
// — binary.LittleEndian compiles to single MOVs on little-endian targets —
// and the [16]uint64 scratch lives on the kernel's stack (fixed-size arrays
// never escape here, so a sync.Pool would only add overhead to the very
// paths this layer exists to strip).

// entryWordCount is EntryBytes / 8: the 64-bit word count of the view.
const entryWordCount = EntryBytes / 8

// loadWords fills w with entry's sixteen little-endian 64-bit words.
// entry must be EntryBytes long (the codec contract, checked by callers).
//
//buddy:hotpath
func loadWords(entry []byte, w *[entryWordCount]uint64) {
	_ = entry[EntryBytes-1]
	for i := 0; i < entryWordCount; i++ {
		w[i] = binary.LittleEndian.Uint64(entry[i*8:])
	}
}

// storeWords writes the sixteen words back as EntryBytes little-endian
// bytes, the inverse of loadWords.
//
//buddy:hotpath
func storeWords(dst []byte, w *[entryWordCount]uint64) {
	_ = dst[EntryBytes-1]
	for i := 0; i < entryWordCount; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], w[i])
	}
}

// u32 returns 32-bit word i (0..31) of the view: the even-indexed halves
// are the low 32 bits of each 64-bit word, odd-indexed the high.
//
//buddy:hotpath
func u32(w *[entryWordCount]uint64, i int) uint32 {
	v := w[i>>1]
	if i&1 != 0 {
		return uint32(v >> 32)
	}
	return uint32(v)
}

// EntryAllZero reports whether the 128 B entry is entirely zero with one
// probe: sixteen word loads ORed together. It is the test the data path
// runs ahead of codec dispatch (core's write pass, analysis.Build) so
// activation-like mostly-zero traffic never enters a codec at all.
// entry must be EntryBytes long.
//
//buddy:hotpath
func EntryAllZero(entry []byte) bool {
	_ = entry[EntryBytes-1]
	var or uint64
	for i := 0; i < entryWordCount; i++ {
		or |= binary.LittleEndian.Uint64(entry[i*8:])
	}
	return or == 0
}

// transpose32 transposes a 32x32 bit matrix held two rows per 64-bit word —
// row 2m in the low lane of w[m], row 2m+1 in the high lane — in place:
// afterwards bit i of row b equals what bit b of row i was. The five
// butterfly rounds of masked swaps (Hacker's Delight 7-3) run on both
// 32-bit lanes per operation, so the whole transpose is ~48 word operations
// with constant masks and shifts instead of the 1024 single-bit moves of a
// naive transpose (or 80 single-lane swaps unpacked). Shifts of 16 or less
// never leak across lanes because the replicated masks are applied after
// the shift; the final row-pair round stays inside each word. BPC uses it
// to turn per-delta transition masks into bit-plane values when enough
// planes need materializing.
//
//buddy:hotpath
func transpose32(w *[entryWordCount]uint64) {
	// The first two rounds skip word pairs that are entirely zero: sparse
	// entries reach the transpose with most rows empty, and a dead pair costs
	// one OR-and-test instead of five ALU ops. Later rounds have already mixed
	// occupancy across the array, so their skip rate is not worth the test.
	for m := 0; m < 8; m++ { // rows 16 apart: words 8 apart
		a, b := w[m], w[m+8]
		if a|b == 0 {
			continue
		}
		t := (a>>16 ^ b) & 0x0000FFFF0000FFFF
		w[m] = a ^ t<<16
		w[m+8] = b ^ t
	}
	for g := 0; g < 16; g += 8 { // rows 8 apart: words 4 apart
		for m := g; m < g+4; m++ {
			a, b := w[m], w[m+4]
			if a|b == 0 {
				continue
			}
			t := (a>>8 ^ b) & 0x00FF00FF00FF00FF
			w[m] = a ^ t<<8
			w[m+4] = b ^ t
		}
	}
	for g := 0; g < 16; g += 4 { // rows 4 apart: words 2 apart
		for m := g; m < g+2; m++ {
			t := (w[m]>>4 ^ w[m+2]) & 0x0F0F0F0F0F0F0F0F
			w[m] ^= t << 4
			w[m+2] ^= t
		}
	}
	for m := 0; m < 16; m += 2 { // rows 2 apart: adjacent words
		t := (w[m]>>2 ^ w[m+1]) & 0x3333333333333333
		w[m] ^= t << 2
		w[m+1] ^= t
	}
	for m := 0; m < 16; m++ { // adjacent rows: the two lanes of one word
		v := w[m]
		t := (v>>1 ^ v>>32) & 0x55555555
		w[m] = v ^ (t<<1 | t<<32)
	}
}

// Every built-in codec encodes the all-zero entry to one fixed stream; the
// table below caches those streams (and their exact payload bit counts) so
// the zero short-circuit can emit the encoding without running the codec.
// The cache is filled at init by running each codec once, which keeps the
// short-circuit frame-compatible by construction: the bytes appended are
// the bytes AppendCompressed would have produced.

type zeroEncoding struct {
	stream [MaxStreamBytes]byte
	n      int
	bits   int
}

var zeroEncodings [6]zeroEncoding

// zeroEncIndex maps a built-in codec to its zeroEncodings slot, or -1 for
// codecs registered outside this package.
//
//buddy:hotpath
func zeroEncIndex(c Codec) int {
	switch c.(type) {
	case BPC:
		return 0
	case BDI:
		return 1
	case FPC:
		return 2
	case FVC:
		return 3
	case CPack:
		return 4
	case Zero:
		return 5
	default:
		return -1
	}
}

// initZeroEncodings fills the per-codec zero-entry stream table by encoding
// one all-zero entry with each built-in codec, straight into the table's
// fixed backing arrays.
//
//buddy:hotpath
func initZeroEncodings() {
	var zero [EntryBytes]byte
	for _, c := range Registry() {
		k := zeroEncIndex(c)
		if k < 0 {
			continue
		}
		z := &zeroEncodings[k]
		stream, bits := c.AppendCompressed(z.stream[:0], zero[:])
		z.n, z.bits = len(stream), bits
	}
}

func init() { initZeroEncodings() }

// AppendZeroEntry appends codec c's encoding of the all-zero entry to dst
// and returns the extended slice with the exact payload bit count — the
// same (stream, bits) AppendCompressed would produce, without entering the
// codec. Unknown codecs fall back to a real encode, so the short-circuit is
// safe ahead of any Codec.
//
//buddy:hotpath
func AppendZeroEntry(dst []byte, c Codec) ([]byte, int) {
	if k := zeroEncIndex(c); k >= 0 {
		z := &zeroEncodings[k]
		return append(dst, z.stream[:z.n]...), z.bits
	}
	var zero [EntryBytes]byte
	return c.AppendCompressed(dst, zero[:])
}

// IsZeroEntryStream reports whether stream is byte for byte codec c's
// encoding of the all-zero entry, so a reader may clear its buffer instead of
// decoding; false for every stream of a codec outside the table.
//
//buddy:hotpath
func IsZeroEntryStream(c Codec, stream []byte) bool {
	k := zeroEncIndex(c)
	return k >= 0 && bytes.Equal(stream, zeroEncodings[k].stream[:zeroEncodings[k].n])
}

// ZeroEntryBits returns the exact payload bit count of codec c's all-zero
// entry encoding (the Sizer fast path without a Sizer).
func ZeroEntryBits(c Codec) int {
	if k := zeroEncIndex(c); k >= 0 {
		return zeroEncodings[k].bits
	}
	_, bits := c.AppendCompressed(nil, make([]byte, EntryBytes))
	return bits
}
