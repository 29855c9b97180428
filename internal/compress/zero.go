package compress

// Zero is the trivial compressor that recognizes only all-zero entries. It
// provides the floor of the algorithm-comparison ablation and doubles as the
// detector for the paper's mostly-zero allocation optimization (§3.4).
type Zero struct{}

// Name implements Codec.
func (Zero) Name() string { return "zero" }

// AppendCompressed implements Codec: one framing bit (0 = zero entry, the
// payload is 0 bits — existence is encoded in metadata) or the framing bit
// plus the raw bytes.
//
//buddy:hotpath
func (Zero) AppendCompressed(dst, entry []byte) ([]byte, int) {
	checkEntry(entry)
	var w BitWriter
	w.Reset(dst)
	if EntryAllZero(entry) {
		w.WriteBits(0, 1)
		return w.Bytes(), 0
	}
	w.WriteBits(1, 1)
	w.WriteBytes(entry)
	return w.Bytes(), EntryBytes * 8
}

// DecompressInto implements Codec.
//
//buddy:hotpath
func (Zero) DecompressInto(dst, comp []byte) error {
	checkDst(dst)
	r := NewBitReader(comp)
	if r.ReadBits(1) == 0 {
		if r.Overrun() {
			return ErrCorrupt
		}
		clear(dst)
		return nil
	}
	return decodeRawEntry(dst, r)
}
