package compress

import (
	"encoding/binary"
	"math/bits"
)

// BPC implements Bit-Plane Compression (Kim, Sullivan, Choukse, Erez — ISCA
// 2016), the algorithm Buddy Compression selects for its high ratios on the
// homogeneously-typed data that dominates GPU memory (§2.4, §3.1).
//
// A 128 B memory-entry is treated as 32 little-endian 32-bit words. The
// first word is the base symbol; the 31 deltas between consecutive words
// (33-bit signed values) are transposed into 33 bit-planes of 31 bits each
// (DBP), adjacent planes are XORed (DBX), and each DBX plane is run/pattern
// encoded with the prefix-free code below:
//
//	pattern                         code                       bits
//	all-zero DBX, run of 2..33      01 + 5-bit (run-2)            7
//	all-zero DBX, run of 1          001                           3
//	all-ones DBX                    00000                         5
//	DBX != 0 but DBP == 0           00001                         5
//	two consecutive ones            00010 + 5-bit position       10
//	single one                      00011 + 5-bit position       10
//	uncompressed plane              1 + 31 raw bits              32
//
// The base symbol uses its own small code (zero / 4-, 8-, 16-bit
// sign-extended / raw). If the encoded stream would reach or exceed the raw
// 1024 bits, the entry is stored uncompressed; the compressed/raw flag is
// carried by the per-entry metadata in hardware, so the reported bit count
// is min(encoded, 1024) and the 1-bit stream framing is an implementation
// detail of this software model.
//
// The kernel never materializes the 33x31 transpose. The load-bearing
// identity is that DBX plane b equals bit-plane b of the per-delta
// transition masks e = d ^ (d>>1): a delta contributes a 1 to DBX plane b
// exactly where its bits b and b+1 differ (and dbp[33] == 0 makes the top
// plane fall out of the same expression). Three 33-bit aggregates then
// classify most planes without touching individual deltas —
//
//	or of all e   bit b == 0  <=>  DBX plane b is all-zero (run codes)
//	and of all e  bit b == 1  <=>  DBX plane b is all-ones
//	or of all d   bit b == 0  <=>  DBP plane b is zero
//
// — and only planes needing the two-ones/single-one/raw discrimination
// read actual plane bits, which one 32x32 bit transpose of the masks yields
// at a fixed cost, two planes per 64-bit word. Every plane code is at most
// 32 bits, so the pre-pass turns each word into a pair code: plane 2m+1's
// code followed by plane 2m's, at most 64 bits, with its length. The
// stream's size is then known before emission, and emission is one
// accumulator over the base code, plane 32's code and sixteen pair codes.
type BPC struct{}

// NewBPC returns the Bit-Plane Compression codec.
func NewBPC() BPC { return BPC{} }

// Name implements Codec.
func (BPC) Name() string { return "bpc" }

const (
	bpcWords   = EntryBytes / 4 // 32 words per entry
	bpcDeltas  = bpcWords - 1   // 31 deltas
	bpcPlanes  = 33             // 33-bit deltas -> 33 bit-planes
	bpcRawBits = EntryBytes * 8
	allOnes31  = (uint32(1) << bpcDeltas) - 1
	bpcMask33  = (uint64(1) << bpcPlanes) - 1
)

// bpcStreamWords sizes the stack register buffer the emitter stores into: a
// stream that goes out compressed is at most 1024 bits, its frame bit
// included, so its last store lands in word 16 at most.
const bpcStreamWords = 17

// bpcCodes is the encode pre-pass's plane codes for planes 0..31, two per
// word in the transpose's lane order: pair[m] is plane 2m+1's code followed
// by plane 2m's, left-aligned (the stream is MSB first, so the higher plane
// leads), and n[m] is its length in bits, 0 to 64. A plane inside a zero run
// has the empty code; the run's code sits on its top plane.
type bpcCodes struct {
	pair [entryWordCount]uint64
	n    [entryWordCount]uint8
}

// bpcBaseCode returns the base-symbol code (zero / 4-, 8-, 16-bit
// sign-extended / raw), prefix and payload merged, and its length.
//
//buddy:hotpath
func bpcBaseCode(base uint32) (uint64, int) {
	v := int32(base)
	switch {
	case v == 0:
		return 0b000, 3
	case v >= -8 && v < 8:
		return 0b001_0000 | uint64(base)&0xF, 7
	case v >= -128 && v < 128:
		return 0b010<<8 | uint64(base)&0xFF, 11
	case v >= -32768 && v < 32768:
		return 0b011<<16 | uint64(base)&0xFFFF, 19
	default:
		return 1<<32 | uint64(base), 33
	}
}

// bpcNeedCode returns the code and length of a plane in need (non-zero, not
// all-ones, DBP non-zero) from its DBX bits x (bit 31 zero): 0b0001t + the
// 5-bit position of its lowest 1 (10 bits) when x is one 1 (t = 1) or two
// adjacent 1s (t = 0), else 1 + the 31 bits (32). The selects are mask
// arithmetic: the plane class is the least predictable quantity in the
// stream, and a mispredicted branch costs more than the ALU ops.
//
//buddy:hotpath
func bpcNeedCode(x uint32) (uint64, uint64) {
	tz := uint64(bits.TrailingZeros32(x))
	pp := uint64(x >> (tz & 31))
	// mShort = all-ones iff pp == 1 or pp == 3, i.e. (pp|2)^3 == 0.
	q := (pp | 2) ^ 3
	mShort := (q|-q)>>63 - 1
	v := (uint64(1)<<bpcDeltas|uint64(x))&^mShort | ((0b00010|(3-pp)>>1)<<5|tz)&mShort
	return v, 32 - 22&mShort
}

// bpcShortCode returns plane x's short code, left-aligned, and its length
// when isShort is 1 (x is one 1 or two adjacent 1s), else l and n as given.
func bpcShortCode(x uint32, isShort, l, n uint64) (uint64, uint64) {
	if isShort == 0 {
		return l, n
	}
	v, _ := bpcNeedCode(x)
	return v << 54, 10
}

// bpcRunCode returns the code and length of a run of run >= 1 all-zero DBX
// planes: 001 for one plane (3 bits), 01 + (run-2) (7 bits) otherwise.
//
//buddy:hotpath
func bpcRunCode(run uint64) (uint64, uint64) {
	r := run - 1
	mOne := (r|-r)>>63 - 1
	return (30+run)&^mOne | 1&mOne, 7 - 4&mOne
}

// bpcPlane32Code returns plane 32's code and length from its DBX bits p32
// and the aggregates, under either kernel set. The classes are disjoint
// masks: in need (bpcNeedCode), non-zero but not in need (all-ones 00000 or
// DBP-zero 00001), or zero, where plane 32 tops a run down to the highest
// non-zero plane below it.
//
//buddy:hotpath
func bpcPlane32Code(p32 uint32, orE, andE, orD uint64) (uint64, int) {
	const b = bpcPlanes - 1
	v, n := bpcNeedCode(p32)
	vRun, nRun := bpcRunCode(b + 1 - uint64(bits.Len32(uint32(orE))))
	mZero := orE>>b&1 - 1
	mNeed := -((orE &^ andE & orD) >> b & 1)
	mAgg := ^mZero &^ mNeed
	v = v&mNeed | ^andE>>b&1&mAgg | vRun&mZero
	n = n&mNeed | 5&mAgg | nRun&mZero
	return v, int(n)
}

// bpcRaw emits the raw-fallback frame (flag bit 1 + the 128 entry bytes,
// 129 bytes in all) with word shifts: each big-endian entry word moves down
// one bit, and the bit it drops leads the next word (the flag leads the
// first).
//
//buddy:hotpath
func bpcRaw(dst, entry []byte) ([]byte, int) {
	var frame [EntryBytes + 1]byte
	carry := uint64(1)
	for k := 0; k < entryWordCount; k++ {
		w := binary.BigEndian.Uint64(entry[k*8:])
		binary.BigEndian.PutUint64(frame[k*8:], carry<<63|w>>1)
		carry = w
	}
	frame[EntryBytes] = byte(carry << 7)
	return append(dst, frame[:]...), bpcRawBits
}

// bpcPut appends the n-bit code lv (0 <= n <= 64, left-aligned, zero past
// bit n) at bit pos of the stream, whose word pos>>6 is acc, left-aligned,
// and returns the advanced state. The word is stored whole every time — a
// plain store, no read-modify-write of the buffer — and when the code
// crosses into the next word its leftover bits start that word, picked by a
// conditional move rather than a branch, since where a code ends is the
// least predictable quantity in the stream.
//
//buddy:hotpath
func bpcPut(sb *[bpcStreamWords]uint64, acc uint64, pos uint, lv uint64, n uint) (uint64, uint) {
	w := pos >> 6
	acc |= lv >> (pos & 63)
	sb[w] = acc
	left := lv << 1 << (^pos & 63)
	pos += n
	if pos>>6 != w {
		acc = left
	}
	return acc, pos
}

// AppendCompressed implements Codec: one encode produces both the framed
// stream (first bit 0 = BPC stream, 1 = raw 128 bytes) and the payload bit
// count, capped at the raw 1024 bits. The pre-pass (bpcFront) returns every
// code of planes 0..31 as sixteen pair codes and their total length, so the
// stream's size is known before a bit of it is written: at 1024 bits or
// more the entry goes straight to the raw frame, and otherwise the frame
// bit, the base code, plane 32 and the pairs go out through one accumulator
// with no per-class branch.
//
//buddy:hotpath
func (BPC) AppendCompressed(dst, entry []byte) ([]byte, int) {
	checkEntry(entry)
	var c bpcCodes
	p32, orE, andE, orD, pairBits := bpcFront((*[EntryBytes]byte)(entry), &c)
	hv, hn := bpcBaseCode(binary.LittleEndian.Uint32(entry))
	v32, n32 := bpcPlane32Code(p32, orE, andE, orD)
	bits := hn + n32 + pairBits
	if bits >= bpcRawBits {
		return bpcRaw(dst, entry)
	}
	// The frame bit (0 = BPC stream) is the zero MSB above the base code.
	var sb [bpcStreamWords]uint64
	acc, pos := hv<<uint(63-hn), uint(1+hn)
	acc, pos = bpcPut(&sb, acc, pos, v32<<uint(64-n32), uint(n32))
	for m := entryWordCount - 1; m >= 0; m-- {
		acc, pos = bpcPut(&sb, acc, pos, c.pair[m], uint(c.n[m]))
	}
	sb[pos>>6] = acc

	// One bulk store: the register words are already the big-endian stream
	// bytes, zero-padded past pos like the BitWriter would pad. When dst has
	// the full register-buffer width spare (every pooled scratch does — cap
	// is MaxStreamBytes), the words store straight into it; the tmp bounce
	// only runs for short caller buffers.
	nw := int(pos+63) >> 6
	nb := int(pos+7) >> 3
	if n := len(dst); cap(dst)-n >= bpcStreamWords*8 {
		buf := dst[n : n+bpcStreamWords*8]
		for j := 0; j < nw; j++ {
			binary.BigEndian.PutUint64(buf[j*8:], sb[j])
		}
		return dst[: n+nb : cap(dst)], bits
	}
	var tmp [bpcStreamWords * 8]byte
	for j := 0; j < nw; j++ {
		binary.BigEndian.PutUint64(tmp[j*8:], sb[j])
	}
	return append(dst, tmp[:nb]...), bits
}

// bpcFrontGo is the encoder's pre-pass over the entry's sixteen 64-bit
// words: the 33-bit deltas and their transition masks e = d ^ d>>1, whose
// bit-plane b is DBX plane b. p32 collects the mask bit-32 column, which is
// the whole of plane 32; orE, andE and orD are the aggregates planes are
// classified by. When any plane below 32 is in need, the masks' low 32 bits
// are transposed into planes (plane 2m in the low lane of a word, 2m+1 in
// the high), and each plane's code is selected by its class; codes gets them
// in pairs, and total is their summed length. The delta loop is branch-free on
// the delta values: a zero delta's all-zero mask adds nothing to orE/orD
// and clears andE, as it must (no plane is all-ones then) — delta values
// are the least predictable data in the entry, and a mispredict costs more
// than the handful of ALU ops a zero delta's dead update takes. It is the
// oracle for bpcFrontGFNI and the pre-pass wherever that kernel cannot run.
//
//buddy:hotpath
func bpcFrontGo(entry *[EntryBytes]byte, codes *bpcCodes) (p32 uint32, orE, andE, orD uint64, total int) {
	var rows [entryWordCount]uint64
	andE = bpcMask33
	prev := int64(0)
	for k := 0; k < entryWordCount; k++ {
		w64 := binary.LittleEndian.Uint64(entry[k*8:])
		lo := int64(uint32(w64))
		hi := int64(w64 >> 32)
		if k > 0 {
			d := uint64(lo-prev) & bpcMask33
			e := d ^ (d >> 1)
			orD |= d
			orE |= e
			andE &= e
			rows[k-1] |= e << 32 // delta 2k-1: high lane of rows[k-1]
			p32 |= uint32(e>>32) << uint(2*k-1)
		}
		d := uint64(hi-lo) & bpcMask33
		e := d ^ (d >> 1)
		orD |= d
		orE |= e
		andE &= e
		rows[k] = e & 0xFFFFFFFF // delta 2k: low lane of rows[k]
		p32 |= uint32(e>>32) << uint(2*k)
		prev = hi
	}
	// Without a transpose the rows hold masks, not planes, but then no plane
	// below 32 is in need and no code reads their bits.
	need := orE &^ andE & orD
	if need&0xFFFFFFFF != 0 {
		transposeButterfly(&rows)
	}
	// Each plane's code, left-aligned, two planes per row. The codes of the
	// planes not in need come first: an aggregate-coded plane's 00000 or
	// 00001, and each run's code on its top plane (a zero plane under a
	// non-zero one); a plane inside a run keeps the empty code.
	var fixL [32]uint64
	var fixN [32]uint8
	for agg := orE &^ need & 0xFFFFFFFF; agg != 0; agg &= agg - 1 {
		b := bits.TrailingZeros64(agg)
		fixL[b], fixN[b] = (^andE>>b&1)<<59, 5
	}
	for top := ^orE & (orE >> 1) & 0xFFFFFFFF; top != 0; top &= top - 1 {
		b := bits.TrailingZeros64(top)
		v, n := bpcRunCode(uint64(b + 1 - bits.Len64(orE&(uint64(1)<<b-1))))
		fixL[b], fixN[b] = v<<(64-n), uint8(n)
	}
	// A plane in need is raw (1 + its 31 bits) unless it is short. Short
	// planes are rare, so a lane-wise test finds them and only they take a
	// branch. The test runs on both lanes of a row at once: a plane's bit 31
	// is zero, so x ^ 0x7FFFFFFF + 1 (2^31 - x) negates it without a carry
	// into the other lane, and x &^ (l | l<<1) + 0x7FFFFFFF sets bit 31
	// exactly when that remainder is non-zero.
	const lane31, laneOne, laneTop = 0x7FFFFFFF_7FFFFFFF, 0x00000001_00000001, 0x80000000_80000000
	for m, row := range &rows {
		ll, nl := row<<32|1<<63, uint64(32)
		lh, nh := row&^0xFFFFFFFF|1<<63, uint64(32)
		l := row & (row ^ lane31 + laneOne) // each plane's lowest 1
		z := ^(row&^(l|l<<1) + lane31) & laneTop
		if short := (z>>31 | z>>62) & need & 3; short != 0 {
			ll, nl = bpcShortCode(uint32(row), short&1, ll, nl)
			lh, nh = bpcShortCode(uint32(row>>32), short>>1, lh, nh)
		}
		ml, mh := -(need & 1), -(need >> 1 & 1)
		ll, nl = ll&ml|fixL[2*m], nl&ml|uint64(fixN[2*m])
		lh, nh = lh&mh|fixL[2*m+1], nh&mh|uint64(fixN[2*m+1])
		codes.pair[m] = lh | ll>>(nh&63)
		codes.n[m] = uint8(nl + nh)
		total += int(nl + nh)
		need >>= 2
	}
	return p32, orE, andE, orD, total
}

// Bits is the size-only kernel Sizer resolves: AppendCompressed's exact
// payload bit count with no stream, no transpose and no plane loop. Every
// code length is a function of the pre-pass aggregates alone —
//
//	base symbol                         3 / 7 / 11 / 19 / 33
//	maximal run of all-zero DBX planes  3 if one plane, else 7
//	all-ones DBX, or DBP == 0           5
//	one 1, or two adjacent 1s           10
//	any other plane                     32
//
// — and the last discrimination, which the encoder makes per plane on
// transposed bits (p = plane >> tz has its low bit set, so p|2 == 3 says no bit
// above bit 1 survives: popcount 1, or popcount 2 with the ones adjacent),
// reads here from per-plane counters kept bit-sliced across the 31 transition
// masks: ones/twos are the count's two low bits, more is sticky once it
// reaches four, and adj collects planes where two consecutive deltas both
// carry a 1 (with a count of exactly two, those are the only two).
//
//buddy:hotpath
func (BPC) Bits(entry []byte) int {
	checkEntry(entry)
	// Deltas stay sign-extended to 64 bits instead of masked to 33: then
	// e = d ^ d>>1 carries planes 0..31 in its low half, plane 32 (the sign)
	// in bit 63 and zeros between, every aggregate inherits that layout, and
	// fold33 moves bit 63 down to bit 32 once per aggregate after the loop
	// rather than masking once per delta inside it.
	p := (*[EntryBytes]byte)(entry)
	w64 := binary.LittleEndian.Uint64(p[:])
	base := uint32(w64)
	prev := int64(w64 >> 32)
	// Delta 0 seeds every accumulator: a count of one wherever its mask is set.
	orD := uint64(prev - int64(base))
	prevE := orD ^ orD>>1
	andE, ones := prevE, prevE
	var twos, more, adj uint64
	for k := 1; k < entryWordCount; k++ {
		w64 := binary.LittleEndian.Uint64(p[k*8:])
		lo := int64(uint32(w64))
		hi := int64(w64 >> 32)
		d := uint64(lo - prev)
		e := d ^ d>>1
		orD |= d
		andE &= e
		adj |= e & prevE
		carry := ones & e
		ones ^= e
		more |= twos & carry
		twos ^= carry

		d = uint64(hi - lo)
		prevE = d ^ d>>1
		orD |= d
		andE &= prevE
		adj |= e & prevE
		carry = ones & prevE
		ones ^= prevE
		more |= twos & carry
		twos ^= carry
		prev = hi
	}
	andE, orD = fold33(andE), fold33(orD)
	ones, twos, more, adj = fold33(ones), fold33(twos), fold33(more), fold33(adj)
	orE := ones | twos | more // a plane's count is non-zero

	n := 33
	switch v := int32(base); {
	case v == 0:
		n = 3
	case v >= -8 && v < 8:
		n = 7
	case v >= -128 && v < 128:
		n = 11
	case v >= -32768 && v < 32768:
		n = 19
	}
	z := ^orE & bpcMask33
	starts := z &^ (z << 1)
	iso := starts &^ (z >> 1)
	need := orE &^ andE & orD
	short := need &^ more & (ones&^twos | twos&^ones&adj)
	n += 7*bits.OnesCount64(starts) - 4*bits.OnesCount64(iso) +
		5*bits.OnesCount64(orE&^need) +
		10*bits.OnesCount64(short) + 32*bits.OnesCount64(need&^short)
	return min(n, bpcRawBits)
}

// fold33 maps Bits' in-loop aggregate layout (planes 0..31 in the low half,
// plane 32 in bit 63) to the 33 contiguous plane bits.
func fold33(x uint64) uint64 { return uint64(uint32(x)) | x>>63<<32 }

// bpcPeekWord is the decoder's out-of-line peek for when byte pos>>3 lands
// in the last 7 bytes of the stream (the caller's precondition): the 64-bit
// window at bit pos, left-aligned (bit pos as MSB), zero-filled past the end
// of buf. Streams of 8+ bytes use one backward-aligned load — the last 8
// bytes shifted up so byte pos>>3 becomes the MSB, with bytes past the end
// falling off as zeros (a shift of 64+ in Go is 0, which covers cursors
// already past the buffer). Only sub-8-byte streams walk bytes.
func bpcPeekWord(buf []byte, pos int) uint64 {
	i := pos >> 3
	if n := len(buf); n >= 8 {
		return binary.BigEndian.Uint64(buf[n-8:]) << uint(8*(i-n+8)+pos&7)
	}
	var w uint64
	for j, rem := 0, len(buf)-i; j < rem && j < 8; j++ {
		w |= uint64(buf[i+j]) << uint(56-8*j)
	}
	return w << uint(pos&7)
}

// The four 5-bit plane codes, as the value of the code's five leading bits.
// The raw (1...), run (01...) and single-zero (001) codes are discriminated
// by magnitude of the peeked word before these values come into play.
const (
	bpcKAllOnes = iota // 00000
	bpcKDBPZero        // 00001
	bpcKTwo            // 00010 + 5-bit position
	bpcKOne            // 00011 + 5-bit position
)

// DecompressInto implements Codec. Instead of rebuilding 33 DBP planes and
// gathering 31x33 bits back into words, the decoder collects the DBX planes
// as it parses and turns them into per-delta values — a suffix XOR and one
// fixed-cost transpose when the planes are dense (bpcBack), a
// popcount-proportional scatter and a parallel-prefix XOR per delta when
// they are sparse — then prefix-sums the words.
//
//buddy:hotpath
func (BPC) DecompressInto(dst, comp []byte) error {
	checkDst(dst)
	n8 := len(comp) - 8
	// Frame bit and base value resolve from one peek of the stream head, the
	// same shape as the plane loop below: the longest prefix (frame 0 + base
	// flag 1 + 32 base bits) is 34 bits, well inside the window.
	var w0 uint64
	if n8 >= 0 {
		w0 = binary.BigEndian.Uint64(comp)
	} else {
		w0 = bpcPeekWord(comp, 0)
	}
	if w0>>63 == 1 {
		// Raw frame: each entry word is the stream word at the same offset
		// shifted up past the flag, topped up by the next byte's high bit.
		if len(comp) <= EntryBytes {
			return ErrCorrupt
		}
		for k := 0; k < entryWordCount; k++ {
			w := binary.BigEndian.Uint64(comp[k*8:])<<1 | uint64(comp[k*8+8]>>7)
			binary.BigEndian.PutUint64(dst[k*8:], w)
		}
		return nil
	}
	var base uint32
	var pos int // local bit cursor: the parse loop peeks and skips inline
	if w0<<1>>63 == 1 {
		base = uint32(w0 >> 30) // flag 1: raw 32-bit base at bits 2..33
		pos = 34
	} else {
		switch w0 >> 60 & 3 { // flag 0: 2-bit size class, sign-extended value
		case 0b00:
			base, pos = 0, 4
		case 0b01:
			base, pos = uint32(int64(w0<<4)>>60), 8
		case 0b10:
			base, pos = uint32(int64(w0<<4)>>56), 12
		default:
			base, pos = uint32(int64(w0<<4)>>48), 20
		}
	}
	var planes [bpcPlanes]uint32
	acc := uint32(0) // DBP plane b+1 while processing plane b
	b := bpcPlanes - 1
	for b >= 0 {
		// One 32-bit peek covers the longest code (raw: 1 + 31 plane bits), so
		// class, run length, position payload and raw plane bits all resolve
		// from the peeked word with shifts, and the stream advances by cursor
		// adds alone. The peek itself is a single unaligned load inlined here —
		// the call-free body is what keeps the per-code cost flat — with the
		// padded assembly loop only inside the stream's last 7 bytes.
		var w uint64
		if i := pos >> 3; i <= n8 {
			w = binary.BigEndian.Uint64(comp[i:]) << uint(pos&7)
		} else {
			w = bpcPeekWord(comp, pos)
		}
		p := uint32(w >> 32)
		var dbx uint32
		switch {
		case p >= 1<<31: // 1 + raw plane
			dbx = p & allOnes31
			pos += 32
		case p >= 1<<30: // 01 + 5-bit (run-2): all-zero run of 2..33
			pos += 7
			b -= int(p>>25&31) + 2
			continue
		case p >= 1<<29: // 001: all-zero run of 1
			pos += 3
			b--
			continue
		default: // five-bit codes 0000x / 0001x
			switch pos5 := p >> 22 & 31; p >> 27 {
			case bpcKAllOnes:
				dbx = allOnes31
				pos += 5
			case bpcKDBPZero:
				dbx = acc // DBP[b] == 0, so DBX[b] == DBP[b+1]
				pos += 5
			case bpcKTwo:
				dbx = uint32(3) << pos5 & allOnes31
				pos += 10
			default: // bpcKOne
				dbx = uint32(1) << pos5 & allOnes31
				pos += 10
			}
		}
		acc ^= dbx
		planes[b] = dbx
		b--
	}
	if pos > len(comp)*8 {
		return ErrCorrupt
	}

	// Rebuild the deltas from the collected DBX planes: dense plane sets (most
	// varied real data) in one fixed-cost pass, bpcBack; under the pure-Go
	// kernels sparse sets scatter just the DBX bits per delta and invert with
	// the parallel-prefix XOR instead, which is cheaper below 48 set bits.
	// The AVX-512 rebuild costs less than the scatter at any count, so only
	// the pure-Go kernels count the bits.
	pop := 0
	if !useGFNI {
		for _, p := range &planes {
			pop += bits.OnesCount32(p)
		}
	}
	if useGFNI || pop >= 48 {
		bpcBack(&planes, base, (*[EntryBytes]byte)(dst))
		return nil
	}
	wv := base
	binary.LittleEndian.PutUint32(dst, wv)
	var trans [bpcDeltas]uint64
	for b, p := range &planes {
		for m := p; m != 0; m &= m - 1 {
			trans[bits.TrailingZeros32(m)] |= 1 << uint(b)
		}
	}
	for i := 0; i < bpcDeltas; i++ {
		// Invert e = d ^ (d>>1): bit k of d is the XOR of e's bits >= k.
		d := trans[i]
		d ^= d >> 1
		d ^= d >> 2
		d ^= d >> 4
		d ^= d >> 8
		d ^= d >> 16
		d ^= d >> 32
		// The 33-bit sign extension vanishes mod 2^32.
		wv += uint32(d)
		binary.LittleEndian.PutUint32(dst[(i+1)*4:], wv)
	}
	return nil
}

// bpcBackGo is the decoder's dense rebuild: it inverts DBX back to DBP with
// one running suffix-XOR over the 32 low planes — 32 XORs replace the
// per-delta parallel-prefix chain — then one 32x32 butterfly transpose of the
// DBP planes yields each delta's low 32 bits directly (plane 32 is the 33-bit
// sign, which vanishes mod 2^32 and needs no reconstruction at all), and
// base plus the deltas' running sums are the entry's words. It is the oracle
// for bpcBackGFNI and the rebuild wherever that kernel cannot run.
//
//buddy:hotpath
func bpcBackGo(planes *[bpcPlanes]uint32, base uint32, dst *[EntryBytes]byte) {
	var rows [entryWordCount]uint64
	dbp := planes[bpcPlanes-1] // DBP[32] == DBX[32], since DBP[33] == 0
	for m := entryWordCount - 1; m >= 0; m-- {
		hi := dbp ^ planes[2*m+1]
		lo := hi ^ planes[2*m]
		rows[m] = uint64(lo) | uint64(hi)<<32
		dbp = lo
	}
	transposeButterfly(&rows)
	wv := base
	binary.LittleEndian.PutUint32(dst[:], wv)
	for i := 0; i < bpcDeltas; i++ {
		wv += uint32(rows[i>>1] >> (uint(i&1) * 32))
		binary.LittleEndian.PutUint32(dst[(i+1)*4:], wv)
	}
}
