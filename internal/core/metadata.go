package core

import (
	"encoding/binary"
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
// memory-entry, packed two entries per byte.
type MetadataStore struct {
	packed []uint8
}

// NewMetadataStore sizes a store for n memory-entries.
func NewMetadataStore(n int) *MetadataStore {
	return &MetadataStore{packed: make([]uint8, (n+1)/2)}
}

// Set records the compressed sector count (0..4) for entry i. A codec caps
// its bits at the raw entry, so larger values cannot occur, and lineClasses
// reads three bit-planes that assume none do: the store panics on
// out-of-range input as that is a programming error.
func (m *MetadataStore) Set(i, sectors int) {
	if sectors < 0 || sectors > compress.SectorsPerEntry {
		panic(fmt.Sprintf("core: metadata value %d out of range [0,%d]", sectors, compress.SectorsPerEntry))
	}
	idx := i / 2
	if i%2 == 0 {
		m.packed[idx] = m.packed[idx]&0xF0 | uint8(sectors)
	} else {
		m.packed[idx] = m.packed[idx]&0x0F | uint8(sectors)<<4
	}
}

// Get returns the compressed sector count for entry i.
func (m *MetadataStore) Get(i int) int {
	idx := i / 2
	if i%2 == 0 {
		return int(m.packed[idx] & 0x0F)
	}
	return int(m.packed[idx] >> 4)
}

// lineClasses returns which entries of metadata line w hold each sector
// class: bit b of class[s] is set when entry w*64+b has class s. The line's
// 32 B are read as four words and bit j of every nibble is gathered into
// plane j, the bit-plane transform BPC applies to data; with classes 0..4 the
// three planes name the class. Past the end of a partial tail line every
// entry reads as class 0.
//
//buddy:hotpath
func (m *MetadataStore) lineClasses(w int) (class [compress.SectorsPerEntry + 1]uint64) {
	var line [MetadataLineBytes]byte
	copy(line[:], m.packed[w*MetadataLineBytes:])
	var plane [3]uint64
	for q := 0; q < MetadataLineBytes/8; q++ {
		x := binary.LittleEndian.Uint64(line[8*q:])
		for j := range plane {
			plane[j] |= nibbleBits(x>>j) << (16 * q)
		}
	}
	class[0] = ^(plane[0] | plane[1] | plane[2])
	class[1] = plane[0] &^ plane[1]
	class[2] = plane[1] &^ plane[0]
	class[3] = plane[0] & plane[1]
	class[4] = plane[2]
	return class
}

// nibbleBits packs bit 0 of each of x's sixteen nibbles into the low 16 bits.
func nibbleBits(x uint64) uint64 {
	x &= 0x1111111111111111
	x = (x | x>>3) & 0x0303030303030303
	x = (x | x>>6) & 0x000F000F000F000F
	x = (x | x>>12) & 0x000000FF000000FF
	return (x | x>>24) & 0xFFFF
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
