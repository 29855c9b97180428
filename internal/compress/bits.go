package compress

import "encoding/binary"

// BitWriter accumulates a big-endian bit stream. Codecs use it to
// produce the exact encoded bit layout, so compressed sizes are bit-accurate
// rather than estimated.
//
// A BitWriter can append into caller-provided storage: Reset points it at an
// existing slice and subsequent writes extend that slice in place (growing
// it only when capacity runs out). This is what makes the single-pass
// AppendCompressed codec path allocation-free: the destination is a pooled
// scratch buffer whose capacity already covers MaxStreamBytes.
//
// Bits are written in whole-byte chunks rather than one at a time, so the
// cost per WriteBits call is O(n/8), not O(n).
type BitWriter struct {
	buf  []byte
	nbit int
}

// Reset points the writer at dst: subsequent writes append to dst starting
// at the next byte boundary. Passing a truncated prefix of the writer's own
// buffer rewinds it (the raw-fallback path of AppendCompressed).
func (w *BitWriter) Reset(dst []byte) {
	w.buf = dst
	w.nbit = len(dst) * 8
}

// WriteBits appends the low n bits of v, most-significant bit first.
//
//buddy:hotpath
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	if off := w.nbit & 7; off != 0 {
		// Fill the free low bits of the partial last byte first.
		space := 8 - off
		if n < space {
			w.buf[len(w.buf)-1] |= byte(v << uint(space-n))
			w.nbit += n
			return
		}
		w.buf[len(w.buf)-1] |= byte(v >> uint(n-space))
		w.nbit += space
		n -= space
	}
	if n >= 8 {
		// Whole bytes land in one append: left-align the remaining bits so
		// the top k bytes of the shifted word are the stream bytes in order.
		var tmp [8]byte
		k := n >> 3
		binary.BigEndian.PutUint64(tmp[:], v<<uint(64-n))
		w.buf = append(w.buf, tmp[:k]...)
		w.nbit += k * 8
		n &= 7
	}
	if n > 0 {
		w.buf = append(w.buf, byte(v<<uint(8-n)))
		w.nbit += n
	}
}

// WriteBytes appends all of p, 8 bits per byte. Byte-aligned writers take
// the plain append; unaligned writers (the raw-fallback path behind every
// codec's 1-bit framing flag) move 8-byte words per step instead of single
// bytes.
//
//buddy:hotpath
func (w *BitWriter) WriteBytes(p []byte) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, p...)
		w.nbit += len(p) * 8
		return
	}
	for len(p) >= 8 {
		w.WriteBits(binary.BigEndian.Uint64(p), 64)
		p = p[8:]
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.nbit }

// Bytes returns the accumulated stream, zero-padded to a byte boundary.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes a big-endian bit stream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int
}

// NewBitReader wraps buf for reading.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits reads n bits and returns them right-aligned. Reading past the end
// of the buffer yields zero bits, which callers treat as a framing error via
// Overrun. The read is word-based: one unaligned 8-byte load covers any
// n <= 57 regardless of bit offset (the decoder's plane probes and raw-plane
// reads all fit), with a ninth byte only for the 64-bit reads near a byte
// boundary and a padded assembly loop only inside the last 7 bytes of the
// stream.
//
//buddy:hotpath
func (r *BitReader) ReadBits(n int) uint64 {
	if n <= 0 {
		return 0
	}
	pos := r.pos
	r.pos = pos + n
	i := pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for j, rem := 0, len(r.buf)-i; j < rem; j++ {
			w |= uint64(r.buf[i+j]) << uint(56-8*j)
		}
	}
	sh := uint(pos & 7)
	w <<= sh
	if n <= 64-int(sh) {
		return w >> (64 - uint(n))
	}
	// The tail of the value spills past the 8 loaded bytes (possible only for
	// n >= 58 off a byte boundary): fetch the missing high bits of the ninth
	// byte, zero past the end like the loop above.
	var b byte
	if i+8 < len(r.buf) {
		b = r.buf[i+8]
	}
	missing := uint(n) - (64 - sh)
	return w>>(64-uint(n)) | uint64(b)>>(8-missing)
}

// ReadBytes fills dst with the next len(dst)*8 bits, the read-side mirror of
// WriteBytes. Byte-aligned readers take one copy (zero-filling past the end
// of the buffer, like ReadBits); unaligned readers stitch each output byte
// from two adjacent stream bytes instead of re-walking bit chunks.
//
//buddy:hotpath
func (r *BitReader) ReadBytes(dst []byte) {
	off := r.pos & 7
	byteIdx := r.pos >> 3
	r.pos += len(dst) * 8
	if off == 0 {
		n := copy(dst, r.buf[min(byteIdx, len(r.buf)):])
		for i := n; i < len(dst); i++ {
			dst[i] = 0
		}
		return
	}
	cur := uint64(0)
	if byteIdx < len(r.buf) {
		cur = uint64(r.buf[byteIdx])
	}
	for i := range dst {
		next := uint64(0)
		if byteIdx+1+i < len(r.buf) {
			next = uint64(r.buf[byteIdx+1+i])
		}
		dst[i] = byte(cur<<uint(off) | next>>uint(8-off))
		cur = next
	}
}

// Overrun reports whether more bits were read than the buffer holds.
func (r *BitReader) Overrun() bool { return r.pos > len(r.buf)*8 }
