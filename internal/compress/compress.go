// Package compress implements the hardware memory-compression algorithms the
// paper evaluates (§2.4): Bit-Plane Compression (BPC, the chosen algorithm),
// plus the baselines it was compared against — Base-Delta-Immediate (BDI),
// Frequent Pattern Compression (FPC), C-PACK and trivial zero compression.
//
// All compressors operate on one 128-byte memory-entry, the compression
// granularity Buddy Compression adopts (one GPU cache block). Compression is
// bit-exact: the codec produces the real encoded bit stream and decoding
// restores the original 128 bytes, so the rest of the system can store and
// round-trip genuine compressed bytes through the modeled memories.
//
// The API is Codec: a single-pass, allocation-free surface.
// AppendCompressed encodes an entry once, appending the framed stream to a
// caller-provided buffer and returning the exact payload bit count — the
// quantity the Buddy metadata needs — from that same encode. DecompressInto
// decodes straight into caller memory. (The allocate-per-call Compressor
// methods CompressedBits/Compress/Decompress that predate Codec are gone;
// size-only sweeps use Sizer, snapshot studies use internal/analysis.)
package compress

import (
	"errors"
	"fmt"
	"strings"
)

// EntryBytes is the paper's compression granularity: a 128 B memory-entry,
// matching the GPU cache-block size (Tab. 2: 128 B lines).
const EntryBytes = 128

// SectorBytes is the GPU memory access granularity (GDDR/HBM2 32 B sectors,
// §3.2); Buddy Compression stripes entries across sectors of this size.
const SectorBytes = 32

// SectorsPerEntry is EntryBytes / SectorBytes = 4.
const SectorsPerEntry = EntryBytes / SectorBytes

// MaxStreamBytes bounds the framed stream any codec, built in or not, may
// append for one entry. The built-ins' worst case is FVC's fully-missing
// dictionary stream: 3 bits of count, 8 x 32 dictionary bits, 32 x 33 word
// bits plus the 1-bit framing = 1316 bits = 165 bytes; the bound leaves
// headroom for future codecs. Scratch buffers of this capacity make
// AppendCompressed allocation-free, and the driver keeps a stream's length
// in a byte (internal/core's stream store asserts that it fits).
const MaxStreamBytes = 192

// ErrCorrupt is returned when an encoded stream is malformed or truncated.
var ErrCorrupt = errors.New("compress: corrupt stream")

// A Codec compresses and decompresses single 128 B memory-entries in one
// pass, without allocating.
//
// Implementations must be safe for concurrent use: the driver's bulk path
// fans a single codec out across many goroutines (one WriteAt can invoke
// AppendCompressed from GOMAXPROCS workers at once). Stateless codecs — all
// built-ins here — satisfy this trivially; keep any per-call state on the
// stack or in the caller-provided dst, never in receiver fields.
type Codec interface {
	// Name identifies the algorithm (e.g. "bpc").
	Name() string
	// AppendCompressed encodes entry once, appends the framed stream to dst
	// (which may be nil or a reused scratch buffer; the stream starts at a
	// byte boundary after dst's existing contents) and returns the extended
	// slice together with the exact payload size in bits. The bit count
	// excludes the software model's stream framing and is capped at
	// EntryBytes*8 — the value the 4-bit Buddy metadata is derived from.
	// entry must be EntryBytes long. The stream is 1 to MaxStreamBytes bytes:
	// an encoding that would run longer must fall back to the raw frame (1
	// framing bit plus the entry, 129 bytes), as every built-in does. The
	// driver stores nothing else: such a write fails, wrapping ErrCorrupt.
	AppendCompressed(dst, entry []byte) (stream []byte, bits int)
	// DecompressInto decodes a stream produced by AppendCompressed into
	// dst, which must be EntryBytes long. On error dst's contents are
	// unspecified.
	DecompressInto(dst, comp []byte) error
}

// rawFallback rewinds w to the framing position at byte offset start and
// stores entry uncompressed behind a 1 framing bit — the shared tail of
// every codec's AppendCompressed when the encode reaches the raw size.
// (Each codec inlines the framing rather than passing its encoder as a
// function value so the BitWriter stays on the caller's stack: escape
// analysis cannot see through an indirect call, and the whole point of the
// single-pass API is a zero-allocation steady state.)
func rawFallback(w *BitWriter, start int, entry []byte) {
	w.Reset(w.Bytes()[:start])
	w.WriteBits(1, 1)
	w.WriteBytes(entry)
}

// decodeRawEntry reads dst's worth of raw bytes from r (the 1-framing-bit
// fallback payload shared by BPC, FPC, C-PACK, FVC and zero).
//
//buddy:hotpath
func decodeRawEntry(dst []byte, r *BitReader) error {
	r.ReadBytes(dst)
	if r.Overrun() {
		return ErrCorrupt
	}
	return nil
}

// sizeOnly is the optional method a Codec may implement beside the interface:
// AppendCompressed's exact bit count without producing the stream. BPC's is a
// closed form of its pre-pass aggregates (bpc.go).
type sizeOnly interface {
	Bits(entry []byte) int
}

// A Sizer measures compressed entry sizes, touching each entry once: a codec
// with a sizeOnly method is asked directly, any other is encoded once into a
// scratch buffer reused across calls. It is the tool for profiling and
// heat-map sweeps that only need sizes; it is not safe for concurrent use —
// create one per goroutine.
type Sizer struct {
	c        Codec
	direct   sizeOnly // nil: encode and discard
	buf      []byte
	zeroBits int
}

// NewSizer returns a Sizer over codec c, resolving c's size-only method once.
func NewSizer(c Codec) *Sizer {
	s := &Sizer{c: c, buf: make([]byte, 0, MaxStreamBytes), zeroBits: ZeroEntryBits(c)}
	s.direct, _ = c.(sizeOnly)
	return s
}

// Bits returns the exact compressed payload size of entry in bits. All-zero
// entries take the one-probe fast path: sixteen word ORs instead of an
// encode (the dominant case for activation-like snapshots, per cDMA's
// 50-90% zero observation).
//
//buddy:hotpath
func (s *Sizer) Bits(entry []byte) int {
	if EntryAllZero(entry) {
		return s.zeroBits
	}
	return s.bitsEncoded(entry)
}

// bitsEncoded is Bits without the zero probe, for callers that already know
// the entry is non-zero.
//
//buddy:hotpath
func (s *Sizer) bitsEncoded(entry []byte) int {
	if s.direct != nil {
		return s.direct.Bits(entry)
	}
	stream, bits := s.c.AppendCompressed(s.buf[:0], entry)
	s.buf = stream[:0]
	return bits
}

// ZeroBits returns the codec's all-zero-entry payload bit count without
// touching any data.
func (s *Sizer) ZeroBits() int { return s.zeroBits }

// OptimisticSizes are the eight compressed memory-entry sizes assumed by the
// paper's optimistic capacity study (Fig. 3): 0, 8, 16, 32, 64, 80, 96 and
// 128 bytes.
var OptimisticSizes = []int{0, 8, 16, 32, 64, 80, 96, 128}

// SectorSizes are the sizes available to the Buddy design proper: whole 32 B
// sectors (§3.2, Fig. 4). An entry stored in s sectors occupies 32*s bytes.
var SectorSizes = []int{32, 64, 96, 128}

// RoundToClass rounds a compressed byte size up to the smallest class in
// classes that can hold it. classes must be sorted ascending. If size exceeds
// every class the largest class is returned (the entry is stored raw).
func RoundToClass(size int, classes []int) int {
	for _, c := range classes {
		if size <= c {
			return c
		}
	}
	return classes[len(classes)-1]
}

// SectorsForBits returns how many 32 B sectors a compressed payload of the
// given bit length occupies: the quantity the Buddy design stores in its
// 4-bit per-entry metadata. The result is in [0, 4]; 0 means the entry
// compresses into the zero-page budget (<= 8 B, §3.4 "Special Case For
// Mostly-Zero Allocations"). The zero-page class requires the payload plus
// the software model's 1-bit stream framing to fit 64 bits, so the boundary
// is 63 payload bits.
func SectorsForBits(bits int) int {
	if bits < ZeroPageBytes*8 {
		return 0
	}
	b := (bits + 7) / 8
	return (b + SectorBytes - 1) / SectorBytes
}

// ZeroPageBytes is the per-entry device budget of the 16x mostly-zero target
// ratio: 8 B kept out of each 128 B (§3.4).
const ZeroPageBytes = 8

// checkEntry panics if entry is not exactly EntryBytes long; compressors use
// it to enforce their contract early.
func checkEntry(entry []byte) {
	if len(entry) != EntryBytes {
		panic(fmt.Sprintf("compress: entry must be %d bytes, got %d", EntryBytes, len(entry)))
	}
}

// checkDst panics if a DecompressInto destination is not exactly EntryBytes
// long; a wrong-size destination is a programming error, not a stream error.
func checkDst(dst []byte) {
	if len(dst) != EntryBytes {
		panic(fmt.Sprintf("compress: dst must be %d bytes, got %d", EntryBytes, len(dst)))
	}
}

// Registry returns the full set of implemented codecs, used by the
// algorithm-comparison ablation bench (§2.4 "After comparing several
// algorithms ... we choose BPC": the comparison set spans BDI, FPC, FVC,
// C-PACK and BPC).
func Registry() []Codec {
	return []Codec{NewBPC(), NewBDI(), NewFPC(), NewFVC(), NewCPack(), Zero{}}
}

// ByName returns the registered codec with the given name — the lookup
// behind name-based selection in command-line flags.
func ByName(name string) (Codec, error) {
	names := make([]string, 0, 6)
	for _, c := range Registry() {
		if c.Name() == name {
			return c, nil
		}
		names = append(names, c.Name())
	}
	return nil, fmt.Errorf("compress: unknown codec %q (have %s)", name, strings.Join(names, ", "))
}
