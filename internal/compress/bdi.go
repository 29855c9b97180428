package compress

import "encoding/binary"

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al., PACT
// 2012), one of the algorithms the paper compared before selecting BPC
// (§2.4). The 128 B entry is encoded as one arbitrary base plus narrow
// per-element deltas, with a second implicit base of zero ("immediate"): a
// per-element mask bit selects which base each delta is relative to.
//
// Encodings tried, smallest first (sizes include the 4-bit encoding ID):
//
//	id  base  delta  elems  payload bytes (base + mask + deltas)
//	 0  zeros             -> 0
//	 1  rep8              -> 8   (one repeated 64-bit value)
//	 2  8B    1B     16   -> 8 + 2 + 16 = 26
//	 3  4B    1B     32   -> 4 + 4 + 32 = 40
//	 4  8B    2B     16   -> 8 + 2 + 32 = 42
//	 5  4B    2B     32   -> 4 + 4 + 64 = 72
//	 6  2B    1B     64   -> 2 + 8 + 64 = 74
//	 7  8B    4B     16   -> 8 + 2 + 64 = 74
//	15  raw               -> 128
//
// The kernel works on the 64-bit word view: elements are sliced out of
// sixteen loaded words, the range test is one branchless add-and-mask per
// element, the mask bits accumulate into a single register emitted with one
// WriteBits, and deltas pack 64 bits at a time (every encoding's delta width
// divides 64 and no entry word straddles a pack boundary). An all-zero
// 64-bit word short-circuits all of its elements at once — they are
// immediates with delta zero — so sparse entries are classified in time
// proportional to their non-zero words.
type BDI struct{}

// NewBDI returns the Base-Delta-Immediate codec.
func NewBDI() BDI { return BDI{} }

// Name implements Codec.
func (BDI) Name() string { return "bdi" }

type bdiEncoding struct {
	id        uint8
	baseBytes int
	deltaBits int
}

// Ordered by ascending compressed size for 128 B entries.
var bdiEncodings = []bdiEncoding{
	{2, 8, 8},
	{3, 4, 8},
	{4, 8, 16},
	{5, 4, 16},
	{6, 2, 8},
	{7, 8, 32},
}

// bdiMaxElems is the element count of the narrowest base (2 B): 64.
const bdiMaxElems = EntryBytes / 2

// bdiChunks is the largest packed-delta word count across encodings
// (64 elements x 8 delta bits, or 16 x 32 = 512 bits = 8 words).
const bdiChunks = 8

// bdiParams is one encoding's precomputed kernel geometry.
type bdiParams struct {
	id        uint8
	baseBits  int    // base width in bits
	deltaBits int    // delta width in bits
	elems     int    // elements per entry
	epw       int    // elements per 64-bit entry word
	elemShift uint   // element width in bits (log-free shift amount)
	elemMask  uint64 // low elemShift bits (all-ones for 64-bit elements)
	deltaMask uint64 // low deltaBits bits
	lim       uint64 // 1 << (deltaBits-1): signed range is [-lim, lim)
	perChunk  int    // deltas per packed 64-bit chunk
}

var bdiParamTable []bdiParams

// bdiParamByID maps encoding ID to its bdiParams, nil for invalid IDs.
var bdiParamByID [16]*bdiParams

func init() {
	bdiParamTable = make([]bdiParams, len(bdiEncodings))
	for i, e := range bdiEncodings {
		elemBits := e.baseBytes * 8
		mask := ^uint64(0)
		if elemBits < 64 {
			mask = 1<<uint(elemBits) - 1
		}
		bdiParamTable[i] = bdiParams{
			id:        e.id,
			baseBits:  elemBits,
			deltaBits: e.deltaBits,
			elems:     EntryBytes / e.baseBytes,
			epw:       8 / e.baseBytes,
			elemShift: uint(elemBits),
			elemMask:  mask,
			deltaMask: 1<<uint(e.deltaBits) - 1,
			lim:       1 << uint(e.deltaBits-1),
			perChunk:  64 / e.deltaBits,
		}
		bdiParamByID[e.id] = &bdiParamTable[i]
	}
}

func signExtend(v uint64, bits int) int64 {
	shift := 64 - uint(bits)
	return int64(v<<shift) >> shift
}

// bdiTryWords attempts encoding p over the word view. On success it returns
// true with the base value, the mask register (element 0 at the MSB end of
// the low p.elems bits), and the packed delta chunks (element 0 at the MSB
// of chunk 0) ready for bulk emission.
//
//buddy:hotpath
func bdiTryWords(w *[entryWordCount]uint64, p *bdiParams, base, maskOut *uint64, chunks *[bdiChunks]uint64) bool {
	var (
		b        uint64
		haveBase bool
		mask     uint64
		chunk    uint64
		fill     int
		ci       int
	)
	wordBits := uint(p.epw * p.deltaBits)
	for k := 0; k < entryWordCount; k++ {
		w64 := w[k]
		if w64 == 0 {
			// Every element of a zero word is an immediate with delta 0.
			mask = mask<<uint(p.epw) | (1<<uint(p.epw) - 1)
			chunk <<= wordBits
			fill += p.epw
			if fill == p.perChunk {
				chunks[ci] = chunk
				ci++
				chunk, fill = 0, 0
			}
			continue
		}
		// Elements are little-endian within the word: element 0 occupies the
		// low bits, so walk a shifting copy from the bottom up.
		rem := w64
		for e := 0; e < p.epw; e++ {
			v := rem & p.elemMask
			rem >>= p.elemShift % 64 // shift 64 is a no-op for 1-elem words
			var d uint64
			if (v+p.lim)&p.elemMask < p.lim<<1 {
				mask = mask<<1 | 1 // immediate: relative to zero base
				d = v
			} else {
				if !haveBase {
					b, haveBase = v, true
				}
				d = v - b
				if (d+p.lim)&p.elemMask >= p.lim<<1 {
					return false
				}
				mask <<= 1
			}
			chunk = chunk<<uint(p.deltaBits) | d&p.deltaMask
			fill++
			if fill == p.perChunk {
				chunks[ci] = chunk
				ci++
				chunk, fill = 0, 0
			}
		}
	}
	*base = b
	*maskOut = mask
	return true
}

// AppendCompressed implements Codec. BDI carries no separate framing bit —
// the 4-bit encoding ID is the frame — so the reported bits are the full
// stream for compressed encodings and the raw cap of EntryBytes*8 for the
// ID-15 fallback (the ID is hardware metadata there, as with the other
// codecs' framing flag).
//
//buddy:hotpath
func (BDI) AppendCompressed(dst, entry []byte) ([]byte, int) {
	checkEntry(entry)
	start := len(dst)
	var w BitWriter
	w.Reset(dst)

	var wv [entryWordCount]uint64
	loadWords(entry, &wv)

	rep := true
	or := wv[0]
	for i := 1; i < entryWordCount; i++ {
		or |= wv[i]
		if wv[i] != wv[0] {
			rep = false
		}
	}
	switch {
	case or == 0:
		w.WriteBits(0, 4)
	case rep:
		w.WriteBits(1, 4)
		w.WriteBits(wv[0], 64)
	default:
		done := false
		var base, mask uint64
		var chunks [bdiChunks]uint64
		for i := range bdiParamTable {
			p := &bdiParamTable[i]
			if !bdiTryWords(&wv, p, &base, &mask, &chunks) {
				continue
			}
			w.WriteBits(uint64(p.id), 4)
			w.WriteBits(base, p.baseBits)
			w.WriteBits(mask, p.elems)
			n := p.elems * p.deltaBits / 64
			for c := 0; c < n; c++ {
				w.WriteBits(chunks[c], 64)
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

// DecompressInto implements Codec. The reader mirrors the packed layout: one
// ReadBits for the mask, 64-bit chunk reads for the deltas, elements
// assembled into the word view and stored in one pass. The consumed bit
// count per encoding is identical to per-element reads, so truncation
// surfaces through Overrun exactly as before.
//
//buddy:hotpath
func (BDI) DecompressInto(dst, comp []byte) error {
	checkDst(dst)
	r := NewBitReader(comp)
	id := uint8(r.ReadBits(4))
	switch id {
	case 0:
		clear(dst)
	case 1:
		v := r.ReadBits(64)
		for i := 0; i < EntryBytes; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	case 15:
		return decodeRawEntry(dst, r)
	default:
		p := bdiParamByID[id]
		if p == nil {
			return ErrCorrupt
		}
		base := r.ReadBits(p.baseBits)
		mask := r.ReadBits(p.elems)
		var wv [entryWordCount]uint64
		i := 0 // element index
		var w64 uint64
		n := p.elems * p.deltaBits / 64
		for c := 0; c < n; c++ {
			chunk := r.ReadBits(64)
			for j := p.perChunk - 1; j >= 0; j-- {
				d := uint64(signExtend(chunk>>uint(j*p.deltaBits), p.deltaBits))
				if mask>>uint(p.elems-1-i)&1 == 0 {
					d += base
				}
				// Element i lands in the low-to-high slot of its entry word.
				w64 |= (d & p.elemMask) << (uint(i%p.epw) * p.elemShift % 64)
				i++
				if i%p.epw == 0 {
					wv[i/p.epw-1] = w64
					w64 = 0
				}
			}
		}
		storeWords(dst, &wv)
	}
	if r.Overrun() {
		return ErrCorrupt
	}
	return nil
}
