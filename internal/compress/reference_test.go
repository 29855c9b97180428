package compress

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"buddy/internal/gen"
)

// This file preserves the pre-word-kernel encoders verbatim as test-only
// reference implementations. The word-level kernels in bpc.go/bdi.go/fpc.go/
// cpack.go/fvc.go/zero.go must stay byte-identical to these — same stream,
// same bit count — over every generator shape and the fuzz corpus, which is
// what keeps the golden figures (Fig 3 gmeans, Fig 7 finals) pinned through
// the performance rewrite. Do not "fix" or modernize these copies: their
// value is that they do not change.

// --- reference BPC (bit-by-bit plane transpose) ---

func refBPCPlanesOf(entry []byte) (base uint32, dbp [bpcPlanes + 1]uint32) {
	var words [bpcWords]uint32
	for i := 0; i < bpcWords; i++ {
		words[i] = binary.LittleEndian.Uint32(entry[i*4:])
	}
	base = words[0]
	var deltas [bpcDeltas]uint64
	for i := 0; i < bpcDeltas; i++ {
		d := int64(words[i+1]) - int64(words[i])
		deltas[i] = uint64(d) & ((1 << bpcPlanes) - 1) // 33-bit two's complement
	}
	for b := 0; b < bpcPlanes; b++ {
		var plane uint32
		for i := 0; i < bpcDeltas; i++ {
			plane |= uint32((deltas[i]>>uint(b))&1) << uint(i)
		}
		dbp[b] = plane
	}
	return base, dbp
}

func refBPCWriteBase(w *BitWriter, base uint32) {
	v := int32(base)
	switch {
	case v == 0:
		w.WriteBits(0b000, 3)
	case v >= -8 && v < 8:
		w.WriteBits(0b001, 3)
		w.WriteBits(uint64(base)&0xF, 4)
	case v >= -128 && v < 128:
		w.WriteBits(0b010, 3)
		w.WriteBits(uint64(base)&0xFF, 8)
	case v >= -32768 && v < 32768:
		w.WriteBits(0b011, 3)
		w.WriteBits(uint64(base)&0xFFFF, 16)
	default:
		w.WriteBits(0b1, 1)
		w.WriteBits(uint64(base), 32)
	}
}

func refBPCEncodeTo(w *BitWriter, entry []byte) {
	base, dbp := refBPCPlanesOf(entry)
	refBPCWriteBase(w, base)
	b := bpcPlanes - 1
	for b >= 0 {
		dbx := dbp[b] ^ dbp[b+1]
		if dbx == 0 {
			run := 1
			for b-run >= 0 && dbp[b-run]^dbp[b-run+1] == 0 && run < 33 {
				run++
			}
			if run == 1 {
				w.WriteBits(0b001, 3)
			} else {
				w.WriteBits(0b01, 2)
				w.WriteBits(uint64(run-2), 5)
			}
			b -= run
			continue
		}
		tz := bits.TrailingZeros32(dbx)
		switch {
		case dbx == allOnes31:
			w.WriteBits(0b00000, 5)
		case dbp[b] == 0:
			w.WriteBits(0b00001, 5)
		case dbx>>uint(tz) == 3:
			w.WriteBits(0b00010, 5)
			w.WriteBits(uint64(tz), 5)
		case dbx>>uint(tz) == 1:
			w.WriteBits(0b00011, 5)
			w.WriteBits(uint64(tz), 5)
		default:
			w.WriteBits(0b1, 1)
			w.WriteBits(uint64(dbx), bpcDeltas)
		}
		b--
	}
}

func refBPCAppend(dst, entry []byte) ([]byte, int) {
	start := len(dst)
	var w BitWriter
	w.Reset(dst)
	w.WriteBits(0, 1)
	refBPCEncodeTo(&w, entry)
	if bits := w.Len() - start*8 - 1; bits < EntryBytes*8 {
		return w.Bytes(), bits
	}
	rawFallback(&w, start, entry)
	return w.Bytes(), EntryBytes * 8
}

// --- reference BDI (byte-wise element loads, bit-at-a-time mask emission) ---

type refBDIScratch struct {
	base   uint64
	mask   [bdiMaxElems]bool
	deltas [bdiMaxElems]uint64
}

func refBDIElem(entry []byte, baseBytes, i int) uint64 {
	switch baseBytes {
	case 2:
		return uint64(binary.LittleEndian.Uint16(entry[i*2:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(entry[i*4:]))
	default:
		return binary.LittleEndian.Uint64(entry[i*8:])
	}
}

func refSignedFits(v uint64, width, deltaBits int) bool {
	sv := refSignExtend(v, width*8)
	lim := int64(1) << uint(deltaBits-1)
	return sv >= -lim && sv < lim
}

func refSignExtend(v uint64, bits int) int64 {
	shift := 64 - uint(bits)
	return int64(v<<shift) >> shift
}

func refBDITry(entry []byte, e bdiEncoding, st *refBDIScratch) bool {
	elems := EntryBytes / e.baseBytes
	haveBase := false
	st.base = 0
	for i := 0; i < elems; i++ {
		v := refBDIElem(entry, e.baseBytes, i)
		if refSignedFits(v, e.baseBytes, e.deltaBits) {
			st.mask[i] = true
			st.deltas[i] = v
			continue
		}
		st.mask[i] = false
		if !haveBase {
			st.base = v
			haveBase = true
		}
		d := v - st.base
		if !refSignedFits(d, e.baseBytes, e.deltaBits) {
			return false
		}
		st.deltas[i] = d
	}
	return true
}

func refAllZero(entry []byte) bool {
	for _, b := range entry {
		if b != 0 {
			return false
		}
	}
	return true
}

func refRepeated8(entry []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(entry)
	for i := 8; i < EntryBytes; i += 8 {
		if binary.LittleEndian.Uint64(entry[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

func refBDIAppend(dst, entry []byte) ([]byte, int) {
	start := len(dst)
	var w BitWriter
	w.Reset(dst)
	switch {
	case refAllZero(entry):
		w.WriteBits(0, 4)
	default:
		if v, ok := refRepeated8(entry); ok {
			w.WriteBits(1, 4)
			w.WriteBits(v, 64)
			break
		}
		var st refBDIScratch
		done := false
		for _, e := range bdiEncodings {
			if !refBDITry(entry, e, &st) {
				continue
			}
			elems := EntryBytes / e.baseBytes
			w.WriteBits(uint64(e.id), 4)
			w.WriteBits(st.base, e.baseBytes*8)
			for i := 0; i < elems; i++ {
				if st.mask[i] {
					w.WriteBits(1, 1)
				} else {
					w.WriteBits(0, 1)
				}
			}
			for i := 0; i < elems; i++ {
				w.WriteBits(st.deltas[i], e.deltaBits)
			}
			done = true
			break
		}
		if !done {
			w.WriteBits(15, 4)
			w.WriteBytes(entry)
		}
	}
	bits := w.Len() - start*8
	if bits >= EntryBytes*8 {
		bits = EntryBytes * 8
	}
	return w.Bytes(), bits
}

// --- reference FPC (per-word byte loads with zero-run lookahead) ---

func refFPCFits(v uint32, bits int) bool {
	sv := int32(v)
	lim := int32(1) << uint(bits-1)
	return sv >= -lim && sv < lim
}

func refFPCHalfFits(h uint16) bool {
	sv := int16(h)
	return sv >= -128 && sv < 128
}

func refFPCEncode(entry []byte, w *BitWriter) {
	i := 0
	for i < bpcWords {
		v := binary.LittleEndian.Uint32(entry[i*4:])
		if v == 0 {
			run := 1
			for i+run < bpcWords && run < 8 &&
				binary.LittleEndian.Uint32(entry[(i+run)*4:]) == 0 {
				run++
			}
			w.WriteBits(0b000, 3)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		switch {
		case refFPCFits(v, 4):
			w.WriteBits(0b001, 3)
			w.WriteBits(uint64(v)&0xF, 4)
		case refFPCFits(v, 8):
			w.WriteBits(0b010, 3)
			w.WriteBits(uint64(v)&0xFF, 8)
		case refFPCFits(v, 16):
			w.WriteBits(0b011, 3)
			w.WriteBits(uint64(v)&0xFFFF, 16)
		case v&0xFFFF == 0:
			w.WriteBits(0b100, 3)
			w.WriteBits(uint64(v>>16), 16)
		case refFPCHalfFits(uint16(v)) && refFPCHalfFits(uint16(v>>16)):
			w.WriteBits(0b101, 3)
			w.WriteBits(uint64(v)&0xFF, 8)
			w.WriteBits(uint64(v>>16)&0xFF, 8)
		case byte(v) == byte(v>>8) && byte(v) == byte(v>>16) && byte(v) == byte(v>>24):
			w.WriteBits(0b110, 3)
			w.WriteBits(uint64(v)&0xFF, 8)
		default:
			w.WriteBits(0b111, 3)
			w.WriteBits(uint64(v), 32)
		}
		i++
	}
}

func refFPCAppend(dst, entry []byte) ([]byte, int) {
	start := len(dst)
	var w BitWriter
	w.Reset(dst)
	w.WriteBits(0, 1)
	refFPCEncode(entry, &w)
	if bits := w.Len() - start*8 - 1; bits < EntryBytes*8 {
		return w.Bytes(), bits
	}
	rawFallback(&w, start, entry)
	return w.Bytes(), EntryBytes * 8
}

// --- reference C-PACK (per-word byte loads, FIFO dictionary) ---

type refCPackDict struct {
	entries [cpackDictSize]uint32
	n       int
	next    int
}

func (d *refCPackDict) push(w uint32) {
	d.entries[d.next] = w
	d.next = (d.next + 1) % cpackDictSize
	if d.n < cpackDictSize {
		d.n++
	}
}

func (d *refCPackDict) lookup(w uint32) (idx, klass int) {
	klass = 0
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		switch {
		case e == w:
			return i, 4
		case klass < 3 && e&0xFFFFFF00 == w&0xFFFFFF00:
			idx, klass = i, 3
		case klass < 2 && e&0xFFFF0000 == w&0xFFFF0000:
			idx, klass = i, 2
		}
	}
	return idx, klass
}

func refCPackEncode(entry []byte, w *BitWriter) {
	var dict refCPackDict
	for i := 0; i < bpcWords; i++ {
		v := binary.LittleEndian.Uint32(entry[i*4:])
		if v == 0 {
			w.WriteBits(0b00, 2)
			continue
		}
		if v&0xFFFFFF00 == 0 {
			w.WriteBits(0b1101, 4)
			w.WriteBits(uint64(v)&0xFF, 8)
			continue
		}
		idx, klass := dict.lookup(v)
		switch klass {
		case 4:
			w.WriteBits(0b10, 2)
			w.WriteBits(uint64(idx), 4)
		case 3:
			w.WriteBits(0b1110, 4)
			w.WriteBits(uint64(idx), 4)
			w.WriteBits(uint64(v)&0xFF, 8)
			dict.push(v)
		case 2:
			w.WriteBits(0b1100, 4)
			w.WriteBits(uint64(idx), 4)
			w.WriteBits(uint64(v)&0xFFFF, 16)
			dict.push(v)
		default:
			w.WriteBits(0b01, 2)
			w.WriteBits(uint64(v), 32)
			dict.push(v)
		}
	}
}

func refCPackAppend(dst, entry []byte) ([]byte, int) {
	start := len(dst)
	var w BitWriter
	w.Reset(dst)
	w.WriteBits(0, 1)
	refCPackEncode(entry, &w)
	if bits := w.Len() - start*8 - 1; bits < EntryBytes*8 {
		return w.Bytes(), bits
	}
	rawFallback(&w, start, entry)
	return w.Bytes(), EntryBytes * 8
}

// --- reference FVC (first-seen values occurring at least twice) ---

func refFVCEncode(entry []byte, w *BitWriter) {
	var words [bpcWords]uint32
	for i := 0; i < bpcWords; i++ {
		words[i] = binary.LittleEndian.Uint32(entry[i*4:])
	}
	var dict [fvcDictMax]uint32
	nd := 0
	for i := 0; i < bpcWords && nd < fvcDictMax; i++ {
		v := words[i]
		dup := false
		for j := 0; j < nd; j++ {
			if dict[j] == v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		count := 0
		for j := i; j < bpcWords; j++ {
			if words[j] == v {
				count++
			}
		}
		if count >= 2 {
			dict[nd] = v
			nd++
		}
	}
	w.WriteBits(uint64(nd), 3)
	for i := 0; i < nd; i++ {
		w.WriteBits(uint64(dict[i]), 32)
	}
	for i := 0; i < bpcWords; i++ {
		v := words[i]
		hit := false
		for j := 0; j < nd; j++ {
			if dict[j] == v {
				w.WriteBits(1, 1)
				w.WriteBits(uint64(j), 3)
				hit = true
				break
			}
		}
		if !hit {
			w.WriteBits(0, 1)
			w.WriteBits(uint64(v), 32)
		}
	}
}

func refFVCAppend(dst, entry []byte) ([]byte, int) {
	start := len(dst)
	var w BitWriter
	w.Reset(dst)
	w.WriteBits(0, 1)
	refFVCEncode(entry, &w)
	if bits := w.Len() - start*8 - 1; bits < EntryBytes*8 {
		return w.Bytes(), bits
	}
	rawFallback(&w, start, entry)
	return w.Bytes(), EntryBytes * 8
}

// --- reference zero codec ---

func refZeroAppend(dst, entry []byte) ([]byte, int) {
	var w BitWriter
	w.Reset(dst)
	if refAllZero(entry) {
		w.WriteBits(0, 1)
		return w.Bytes(), 0
	}
	w.WriteBits(1, 1)
	w.WriteBytes(entry)
	return w.Bytes(), EntryBytes * 8
}

// refAppend dispatches to the reference encoder matching codec c.
func refAppend(c Codec, dst, entry []byte) ([]byte, int) {
	switch c.(type) {
	case BPC:
		return refBPCAppend(dst, entry)
	case BDI:
		return refBDIAppend(dst, entry)
	case FPC:
		return refFPCAppend(dst, entry)
	case FVC:
		return refFVCAppend(dst, entry)
	case CPack:
		return refCPackAppend(dst, entry)
	case Zero:
		return refZeroAppend(dst, entry)
	}
	panic("no reference encoder for " + c.Name())
}

// checkAgainstReference fails the test if c's encode of entry differs from
// the reference encoder in stream bytes or bit count, or if c's Sizer (the
// size-only kernel, where c has one) disagrees with the reference bit count.
func checkAgainstReference(t *testing.T, c Codec, entry []byte, label string) {
	t.Helper()
	stream, bits := c.AppendCompressed(nil, entry)
	wantStream, wantBits := refAppend(c, nil, entry)
	if bits != wantBits {
		t.Fatalf("%s/%s: bits = %d, reference = %d", c.Name(), label, bits, wantBits)
	}
	if got := NewSizer(c).Bits(entry); got != wantBits {
		t.Fatalf("%s/%s: Sizer.Bits = %d, reference = %d", c.Name(), label, got, wantBits)
	}
	if !bytes.Equal(stream, wantStream) {
		t.Fatalf("%s/%s: stream differs from reference\n got %x\nwant %x",
			c.Name(), label, stream, wantStream)
	}
}

// crossCheckGens is codecGens plus the sparse-activation shapes the word
// kernels fast-path: the reference equivalence must hold exactly where the
// sparsity pre-pass fires.
func crossCheckGens() []gen.Generator {
	return append(codecGens(),
		gen.SparseFP16{ZeroFrac: 0.5},
		gen.SparseFP16{ZeroFrac: 0.7},
		gen.SparseFP16{ZeroFrac: 0.9},
	)
}

// TestWordKernelsMatchReference is the rewrite's safety net: every codec's
// word-level kernel must emit byte-identical streams and bit counts to the
// preserved pre-rewrite encoder over every generator shape and a battery of
// adversarial structural entries (all-zero, every single-set-bit position,
// boundary patterns).
func TestWordKernelsMatchReference(t *testing.T) {
	for _, c := range allCodecs() {
		for gi, g := range crossCheckGens() {
			for seed := uint64(0); seed < 8; seed++ {
				entry := entryOf(t, g, seed*101+uint64(gi))
				checkAgainstReference(t, c, entry, g.Name())
			}
		}
		// All-zero and every single-set-bit entry: the structural extremes
		// of the zero short-circuit and the sparsity pre-pass.
		entry := make([]byte, EntryBytes)
		checkAgainstReference(t, c, entry, "all-zero")
		for bit := 0; bit < EntryBytes*8; bit++ {
			entry[bit>>3] = 1 << uint(bit&7)
			checkAgainstReference(t, c, entry, "single-bit")
			entry[bit>>3] = 0
		}
		// Patterns that sit on encoder decision boundaries.
		boundary := [][]byte{
			bytes.Repeat([]byte{0xFF}, EntryBytes),
			bytes.Repeat([]byte{0x7F, 0x00, 0x00, 0x00}, EntryBytes/4), // max 8-bit SE word
			bytes.Repeat([]byte{0x80, 0x00, 0x00, 0x00}, EntryBytes/4),
			bytes.Repeat([]byte{0x00, 0x80, 0xFF, 0xFF}, EntryBytes/4), // 16-bit SE negative
			bytes.Repeat([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, EntryBytes/8),
		}
		for _, e := range boundary {
			checkAgainstReference(t, c, e, "boundary")
		}
	}
}
