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
// at a fixed cost, two planes per 64-bit word. That packing is also the raw
// code's layout: when an odd plane and the plane below it are both raw, the
// word is their two codes back to back, and the pair goes out in one put.
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

// bpcStreamWords sizes the stack register buffer the encoder emits into.
// The worst case stream is 1 frame bit + a 33-bit base code + 33 raw planes
// (1090 bits), under 18x64 — so the emission loop needs no overflow check at
// all, and the single raw-vs-compressed decision happens once at the end.
const bpcStreamWords = 18

// bpcPut appends the low n bits of v (MSB first, 0 <= n <= 64) to the
// register buffer at bit cursor pos and returns the advanced cursor. The
// value is left-aligned once (n = 0 leaves nothing to OR, since a shift by
// 64 yields 0) and both the current and the next word are OR-ed
// unconditionally —
// when the code does not spill, the second OR contributes zero (a shift by
// 64 yields 0) — so the put has no does-it-spill branch; the cursor's word
// alignment is data-dependent and the branch would mispredict about as often
// as not. The buffer has a spare word past the worst-case stream, so wi+1 is
// always in range. No length tracking, no byte appends: this is what lets
// the encoder skip the BitWriter entirely until the final bulk store.
//
//buddy:hotpath
func bpcPut(sb *[bpcStreamWords]uint64, pos int, v uint64, n int) int {
	lv := v << uint(64-n)
	off := uint(pos) & 63
	wi := pos >> 6
	sb[wi] |= lv >> off
	sb[wi+1] |= lv << (64 - off)
	return pos + n
}

// bpcPutBase emits the base-symbol code (zero / 4-, 8-, 16-bit
// sign-extended / raw), prefix and payload pre-merged into one put.
//
//buddy:hotpath
func bpcPutBase(sb *[bpcStreamWords]uint64, pos int, base uint32) int {
	v := int32(base)
	switch {
	case v == 0:
		return bpcPut(sb, pos, 0b000, 3)
	case v >= -8 && v < 8:
		return bpcPut(sb, pos, 0b001_0000|uint64(base)&0xF, 7)
	case v >= -128 && v < 128:
		return bpcPut(sb, pos, 0b010<<8|uint64(base)&0xFF, 11)
	case v >= -32768 && v < 32768:
		return bpcPut(sb, pos, 0b011<<16|uint64(base)&0xFFFF, 19)
	default:
		return bpcPut(sb, pos, 1<<32|uint64(base), 33)
	}
}

// bpcRawPlane reports whether a non-zero plane takes the raw code: it has
// a 1 outside its lowest set bit and the bit above it, so it is neither a
// one-ones nor a two-adjacent-ones pattern.
func bpcRawPlane(x uint32) bool {
	low := x & -x
	return x&^(low|low<<1) != 0
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

// AppendCompressed implements Codec: one encode produces both the framed
// stream (first bit 0 = BPC stream, 1 = raw 128 bytes) and the payload bit
// count, capped at the raw 1024 bits. The register buffer absorbs even the
// worst-case encoding, so the emission loop runs checkless and the raw
// fallback decision happens exactly once, at the end.
//
//buddy:hotpath
func (BPC) AppendCompressed(dst, entry []byte) ([]byte, int) {
	checkEntry(entry)
	// The stream builds in a stack register buffer: each code lands with one
	// or two shift-ors at a bit cursor, and the finished stream stores to dst
	// in a single pass at the end. pos starts past the frame bit (0 = BPC
	// stream), already present as the zero MSB of sbuf[0].
	var sbuf [bpcStreamWords]uint64
	pos := 1

	// The pre-pass (bpcFront) yields the aggregates, plane 32 (p32) and,
	// whenever a plane below 32 is in need, planes 0..31 in rows: plane 2m in
	// the low lane of rows[m], plane 2m+1 in its high lane, each lane's bit 31
	// (the absent delta 31) zero. Planes that the aggregates cannot classify
	// (non-zero, not all-ones, DBP non-zero) are emitted from those 31 bits.
	var rows [entryWordCount]uint64
	p32, orE, andE, orD := bpcFront((*[EntryBytes]byte)(entry), &rows)
	need := orE &^ andE & orD
	base := binary.LittleEndian.Uint32(entry)

	pos = bpcPutBase(&sbuf, pos, base)
	// Plane 32 is p32, the deltas' borrows; classifying it before the loop
	// keeps the per-plane body free of the is-it-the-top-plane test. The loop
	// then emits one bpcPut per surviving plane, or per raw plane pair: a
	// zero-run hop (single Len64 instead of a per-plane walk — sparse entries
	// have long runs) fuses its run code with the code of the plane that ends
	// the run, so a run+plane pair costs one call, and the code
	// discriminations select values rather than control flow (a
	// data-dependent outcome is a couple of conditional moves, not a pipeline
	// flush).
	b := bpcPlanes - 1
	if orE>>uint(b)&1 == 1 {
		if need>>uint(b)&1 == 1 {
			tz := bits.TrailingZeros32(p32)
			v, n := uint64(1)<<bpcDeltas|uint64(p32), 32
			if p := p32 >> uint(tz); p|2 == 3 {
				v, n = (0b00010|uint64(3-p)>>1)<<5|uint64(tz), 10
			}
			pos = bpcPut(&sbuf, pos, v, n)
		} else {
			// all-ones DBX (00000) when every delta transitions, else DBP-zero
			// (00001): the codes differ in one bit, read out of andE directly.
			pos = bpcPut(&sbuf, pos, ^andE>>uint(b)&1, 5)
		}
		b--
	}
	for b >= 0 {
		var rv uint64 // pending run code, emitted fused with the next plane
		rn := 0
		if orE>>uint(b)&1 == 0 {
			hb := bits.Len64(orE&(uint64(1)<<uint(b)-1)) - 1
			rv, rn = 0b001, 3
			if run := b - hb; run != 1 {
				rv, rn = 0b01_00000|uint64(run-2), 7
			}
			b = hb
			if b < 0 {
				pos = bpcPut(&sbuf, pos, rv, rn)
				break
			}
		}
		row := rows[b>>1]
		// Raw pair: an odd plane b and plane b-1 that both need their bits
		// and are neither one-ones nor two-adjacent-ones planes. The row is
		// then already their two raw codes back to back — plane b in the
		// high lane, b-1 in the low, each lane's empty bit 31 taking the raw
		// flag — so the pair lands with one 64-bit put (a pending run code,
		// which would not fit beside it, goes first on its own).
		if b&1 == 1 && need>>uint(b-1)&3 == 3 && bpcRawPlane(uint32(row>>32)) && bpcRawPlane(uint32(row)) {
			pos = bpcPut(&sbuf, pos, rv, rn)
			pos = bpcPut(&sbuf, pos, row|1<<63|1<<31, 64)
			b -= 2
			continue
		}
		// One plane. Both discriminations below are pure mask arithmetic —
		// the plane class is the least predictable quantity in the stream,
		// and a mispredicted branch costs more than the dozen ALU ops the
		// masked selects take. Without a transpose the row holds masks, not
		// planes, but then mAgg discards it.
		plane := uint32(row >> (uint(b&1) * 32))
		tz := bits.TrailingZeros32(plane)
		pp := uint64(plane >> uint(tz))
		// mShort = all-ones iff the plane is a one/two-ones pattern
		// (pp == 1 or pp == 3, i.e. (pp|2)^3 == 0).
		q := (pp | 2) ^ 3
		mShort := (q|-q)>>63 - 1
		// mAgg = all-ones iff the aggregates classify the plane (need bit 0).
		mAgg := need>>uint(b)&1 - 1
		vShort := (0b00010|(3-pp)>>1)<<5 | uint64(tz)
		vRaw := uint64(1)<<bpcDeltas | uint64(plane)
		vAgg := ^andE >> uint(b) & 1
		v := (vRaw&^mShort|vShort&mShort)&^mAgg | vAgg&mAgg
		n := int(32 - 22&mShort&^mAgg - 27&mAgg)
		pos = bpcPut(&sbuf, pos, rv<<uint(n)|v, rn+n)
		b--
	}
	if bits := pos - 1; bits < bpcRawBits {
		// One bulk store: the register words are already the big-endian
		// stream bytes, zero-padded past pos like the BitWriter would pad.
		// When dst has the full register-buffer width spare (every pooled
		// scratch does — cap is MaxStreamBytes), the words store straight into
		// it; the tmp bounce only runs for short caller buffers.
		nw := (pos + 63) >> 6
		nb := (pos + 7) >> 3
		if n := len(dst); cap(dst)-n >= bpcStreamWords*8 {
			buf := dst[n : n+bpcStreamWords*8]
			for j := 0; j < nw; j++ {
				binary.BigEndian.PutUint64(buf[j*8:], sbuf[j])
			}
			return dst[: n+nb : cap(dst)], bits
		}
		var tmp [bpcStreamWords * 8]byte
		for j := 0; j < nw; j++ {
			binary.BigEndian.PutUint64(tmp[j*8:], sbuf[j])
		}
		return append(dst, tmp[:nb]...), bits
	}
	return bpcRaw(dst, entry)
}

// bpcFrontGo is the encoder's pre-pass over the entry's sixteen 64-bit
// words: the 33-bit deltas and their transition masks e = d ^ d>>1. rows
// gets each mask's low 32 bits two deltas per word (delta 2m in the low lane
// of rows[m]), transposed into planes (plane 2m in the low lane, 2m+1 in the
// high) when any plane below 32 is in need; p32 collects the mask bit-32
// column, which is the whole of plane 32, and orE, andE and orD are the
// aggregates the emitter classifies planes by. The body is branch-free on
// the delta values: a zero delta's all-zero mask adds nothing to orE/orD
// and clears andE, as it must (no plane is all-ones then) — delta values are
// the least predictable data in the entry, and a mispredict costs more than
// the handful of ALU ops a zero delta's dead update takes. It is the oracle
// for bpcFrontGFNI and the pre-pass wherever that kernel cannot run.
//
//buddy:hotpath
func bpcFrontGo(entry *[EntryBytes]byte, rows *[entryWordCount]uint64) (p32 uint32, orE, andE, orD uint64) {
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
	if need := orE &^ andE & orD; need&0xFFFFFFFF != 0 {
		transposeButterfly(rows)
	}
	return p32, orE, andE, orD
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
	var nz uint64    // mask of planes with a non-zero DBX
	pop := 0         // total DBX bits, the sparse path's scatter cost
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
		nz |= uint64(1) << uint(b)
		pop += bits.OnesCount32(dbx)
		b--
	}
	if pos > len(comp)*8 {
		return ErrCorrupt
	}

	// Rebuild the deltas from the collected DBX planes: dense plane sets (most
	// varied real data) in one fixed-cost pass, bpcBack; sparse sets scatter
	// just the DBX bits per delta and invert with the parallel-prefix XOR
	// instead, which is cheaper below 48 set bits.
	if pop >= 48 {
		bpcBack(&planes, base, (*[EntryBytes]byte)(dst))
		return nil
	}
	wv := base
	binary.LittleEndian.PutUint32(dst, wv)
	var trans [bpcDeltas]uint64
	for ; nz != 0; nz &= nz - 1 {
		b := bits.TrailingZeros64(nz)
		for m := planes[b]; m != 0; m &= m - 1 {
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
