package core

import (
	"fmt"
	"math/bits"
	"sync"

	"buddy/internal/cache"
	"buddy/internal/compress"
)

// MetadataBitsPerEntry is the per-128 B-entry translation metadata: enough
// to record the compressed sector count (§3.2, "4 bits of metadata per cache
// block ... amounting to a 0.4% overhead in storage").
const MetadataBitsPerEntry = 4

// MetadataLineBytes is the metadata cache line size; one 32 B line covers
// the metadata of 64 consecutive memory-entries, so a miss prefetches the
// metadata of 63 neighbours (§3.2).
const MetadataLineBytes = 32

// EntriesPerMetadataLine is 32 B * 8 / 4 bits = 64.
const EntriesPerMetadataLine = MetadataLineBytes * 8 / MetadataBitsPerEntry

// MetadataStore holds the dedicated device-memory region with 4 bits per
// memory-entry, each 32 B line as its four bit-planes: word 4w+j holds bit j
// of the classes of line w's 64 entries, bit b for entry w*64+b. Classes are
// 0..4, so plane 3 stays zero; it keeps a line at §3.2's 32 B.
type MetadataStore struct {
	planes []uint64
}

// NewMetadataStore sizes a store for n memory-entries, in whole lines.
func NewMetadataStore(n int) *MetadataStore {
	lines := (n + EntriesPerMetadataLine - 1) / EntriesPerMetadataLine
	return &MetadataStore{planes: make([]uint64, lines*MetadataBitsPerEntry)}
}

// Set records the compressed sector count (0..4) for entry i. A codec caps
// its bits at the raw entry, so larger values cannot occur, and a metaLine
// reads three bit-planes that assume none do: the store panics on
// out-of-range input as that is a programming error.
func (m *MetadataStore) Set(i, sectors int) {
	if sectors < 0 || sectors > compress.SectorsPerEntry {
		panic(fmt.Sprintf("core: metadata value %d out of range [0,%d]", sectors, compress.SectorsPerEntry))
	}
	w, bit := i/EntriesPerMetadataLine*MetadataBitsPerEntry, uint64(1)<<(i%EntriesPerMetadataLine)
	for j, p := range m.planes[w : w+3] {
		m.planes[w+j] = p&^bit | uint64(sectors>>j&1)*bit
	}
}

// Get returns the compressed sector count for entry i.
func (m *MetadataStore) Get(i int) int {
	return m.line(i / EntriesPerMetadataLine).at(i % EntriesPerMetadataLine)
}

// line reads metadata line w: three loads, no gather.
//
//buddy:hotpath
func (m *MetadataStore) line(w int) metaLine {
	p := (*[MetadataBitsPerEntry]uint64)(m.planes[w*MetadataBitsPerEntry:])
	return metaLine{p[0], p[1], p[2]}
}

// metaLine is a metadata line as read, its planes that can be non-zero: bit b
// of pj is bit j of entry b's class, and an entry past the end of a partial
// tail line reads as class 0. Fields, not an array, keep it in registers.
type metaLine struct{ p0, p1, p2 uint64 }

// at returns the class of the line's entry b.
func (l metaLine) at(b int) int {
	return int(l.p0>>b&1 | l.p1>>b&1<<1 | l.p2>>b&1<<2)
}

// classes returns which of the line's entries hold each sector class: bit b
// of class[s] is set when entry b has class s.
//
//buddy:hotpath
func (l metaLine) classes() (class [compress.SectorsPerEntry + 1]uint64) {
	class[0] = ^(l.p0 | l.p1 | l.p2)
	class[1] = l.p0 &^ l.p1
	class[2] = l.p1 &^ l.p0
	class[3] = l.p0 & l.p1
	class[4] = l.p2
	return class
}

// MetadataCache models the sliced, set-associative metadata cache (Fig. 5:
// 4-way, 64 KB total split into 8 slices, one per DRAM channel; Tab. 2 uses
// 4 KB per slice). Metadata lines are interleaved across slices with the
// same hashing as regular physical addresses. It is safe for concurrent
// use: each slice has its own lock, mirroring the per-DRAM-channel
// independence of the hardware.
type MetadataCache struct {
	slices []*cache.Cache
	locks  []sync.Mutex
	// mask/shift select the slice and the slice-local line: the slice count
	// is a power of two (the hardware configuration: one slice per DRAM
	// channel).
	mask  uint64
	shift uint
}

// NewMetadataCache builds a cache of totalBytes split across nSlices
// set-associative slices. It panics unless nSlices is a power of two, which
// is a configuration error.
func NewMetadataCache(totalBytes, nSlices, ways int) *MetadataCache {
	if nSlices <= 0 || nSlices&(nSlices-1) != 0 {
		panic(fmt.Sprintf("core: metadata cache slice count %d is not a power of two", nSlices))
	}
	mc := &MetadataCache{
		slices: make([]*cache.Cache, nSlices),
		locks:  make([]sync.Mutex, nSlices),
		mask:   uint64(nSlices - 1),
		shift:  uint(bits.TrailingZeros(uint(nSlices))),
	}
	for i := range mc.slices {
		mc.slices[i] = cache.New(totalBytes/nSlices, ways, MetadataLineBytes)
	}
	return mc
}

// Access looks up the metadata line for memory-entry index entry and reports
// whether it hit. A miss models one extra 32 B device-memory read.
func (mc *MetadataCache) Access(entry int) bool { return mc.AccessN(entry, 1) }

// AccessN is n >= 1 Accesses in a row of the line that holds entry's metadata
// — the accesses of n entries that share the line — under one acquisition of
// the slice's lock, and reports whether the first hit: the rest hit the line
// it leaves resident. The slice is selected by the line address (the
// DRAM-channel hash of §3.2); the slice-local lookup drops the selection bits
// so slice id and set index do not alias.
func (mc *MetadataCache) AccessN(entry, n int) bool {
	byteAddr := uint64(entry) * MetadataBitsPerEntry / 8
	line := byteAddr / MetadataLineBytes
	i := line & mc.mask
	mc.locks[i].Lock()
	hit := mc.slices[i].AccessN((line>>mc.shift)*MetadataLineBytes, n)
	mc.locks[i].Unlock()
	return hit
}

// HitRate aggregates hits across slices.
func (mc *MetadataCache) HitRate() float64 {
	var h, m uint64
	for i, s := range mc.slices {
		mc.locks[i].Lock()
		h += s.Hits()
		m += s.Misses()
		mc.locks[i].Unlock()
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Reset clears all slices.
func (mc *MetadataCache) Reset() {
	for i, s := range mc.slices {
		mc.locks[i].Lock()
		s.Reset()
		mc.locks[i].Unlock()
	}
}
