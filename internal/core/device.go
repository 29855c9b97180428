package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
	"buddy/internal/nvlink"
)

// EntryBytes is the compression granularity: one 128 B memory-entry.
const EntryBytes = compress.EntryBytes

// MaxStreamBytes is the largest framed compressed stream one entry can
// produce — the scratch capacity entry-stream consumers (ExportEntry
// callers) size their buffers to.
const MaxStreamBytes = compress.MaxStreamBytes

// Config parameterizes a Buddy Compression device. Zero fields select the
// paper's final design (§3.5) with a 12 GB device (Titan Xp class, as in the
// DL case study). The geometry §3.2 and §3.5 fix — the default carve-out's
// size factor and link, the metadata cache's size, slices and ways — is
// constant; a carve-out of another size or link replaces the default one as
// Overflow.
type Config struct {
	// Codec is the memory compression algorithm (default BPC, §2.4). It
	// must be safe for concurrent use: the bulk data path fans it out
	// over idle cores.
	Codec compress.Codec
	// DeviceBytes is the GPU device memory capacity available for
	// compressed allocations (default 12 GB).
	DeviceBytes int64
	// Overflow is the storage tier for sectors that spill past the target
	// ratio. Nil selects the paper's design: a buddy carve-out of
	// carveoutFactor x DeviceBytes behind NVLink2. Any other carve-out is
	// NewCarveoutBackend(capacity, link).
	Overflow Backend
}

// The device geometry the paper fixes.
const (
	// carveoutFactor sizes the default buddy carve-out relative to device
	// memory: 3x supports a 4x maximum target ratio (§3.2).
	carveoutFactor = 3
	// metadataCacheBytes, metadataCacheSlices and metadataCacheWays shape
	// the metadata cache: 64 KB in eight 4-way set-associative slices (§3.2;
	// §3.5: 4 KB per DRAM-channel slice).
	metadataCacheBytes  = 64 << 10
	metadataCacheSlices = 8
	metadataCacheWays   = 4
	// gbbr is the global buddy base register: the modeled address the
	// carve-out starts at (arbitrary).
	gbbr = 0x4000_0000_0000
)

// Traffic holds a snapshot of a Device's byte-level traffic counters.
type Traffic struct {
	// DeviceReadBytes and DeviceWriteBytes count device-memory data traffic.
	DeviceReadBytes  uint64
	DeviceWriteBytes uint64
	// BuddyReadBytes and BuddyWriteBytes count interconnect traffic to the
	// overflow tier.
	BuddyReadBytes  uint64
	BuddyWriteBytes uint64
	// MetadataFillBytes counts device reads caused by metadata cache misses.
	MetadataFillBytes uint64
	// MigrationBytes counts stored compressed bytes re-packed between
	// layouts by ApplyReprofile/Retarget (the §3.4 migration cost; the
	// device- and buddy-side transfers of each move are also folded into
	// the byte counters above).
	MigrationBytes uint64
	// Reads and Writes count entry-level operations; BuddyAccesses counts
	// operations that touched the overflow tier (the numerator of Fig. 7/9).
	Reads         uint64
	Writes        uint64
	BuddyAccesses uint64
}

// BuddyAccessFraction returns the fraction of entry accesses that touched
// the overflow tier.
func (t Traffic) BuddyAccessFraction() float64 {
	total := t.Reads + t.Writes
	if total == 0 {
		return 0
	}
	return float64(t.BuddyAccesses) / float64(total)
}

// trafficCounters is the device's live (atomic) form of Traffic, less the
// device bytes, which are the slab's meter (Device.Traffic).
type trafficCounters struct {
	buddyReadBytes, buddyWriteBytes atomic.Uint64
	metadataFillBytes               atomic.Uint64
	migrationBytes                  atomic.Uint64
	reads, writes, buddyAccesses    atomic.Uint64
}

func (t *trafficCounters) reset() {
	t.buddyReadBytes.Store(0)
	t.buddyWriteBytes.Store(0)
	t.metadataFillBytes.Store(0)
	t.migrationBytes.Store(0)
	t.reads.Store(0)
	t.writes.Store(0)
	t.buddyAccesses.Store(0)
}

// entryShards is the number of mutexes striping an allocation's entries.
// Entries hash to shards by metadata line (64 entries), so the updates of a
// shared metadata byte and of a relayout's word of moved bits serialize.
const entryShards = 64

// Device is a Buddy Compression GPU memory: compressed allocations split
// between a primary device-slab tier and an overflow tier (the NVLink buddy
// carve-out in the paper's design) addressed from a global base register
// (GBBR). Compressed streams are bit-exact; placement and traffic are
// modeled at the paper's sector granularity. The streams themselves live
// with their allocation (see Allocation); the device holds what is placed
// where. Every read, write and move of an entry is a pass of one walker over
// an allocation's entries (relocate.go), which charges both tiers once per
// sub-batch: the slab as sums, the overflow tier as one span of accesses, in
// the order they happened.
//
// A Device is safe for concurrent use. It owns the allocation list and the
// modeled address allocator, both under mu; everything about one allocation
// — which layout it is on, whether it is freed, the relayout in flight — is
// the allocation's own (Allocation.mu), its control-plane operations
// serialize on Allocation.ctl, per-entry state sits under the sharded entry
// mutexes and traffic in atomic counters. Lock order: Allocation.ctl ->
// Device.mu -> Allocation.mu -> entry shards -> streamStore.mu. Individual
// entry operations are atomic; a multi-entry ReadAt/WriteAt is not one atomic
// unit against concurrent writers to the same range.
type Device struct {
	codec    compress.Codec
	overflow Backend
	mcache   *MetadataCache
	// zeroClass is the codec's sector class of the all-zero entry: how a
	// never-written entry, which reads as zeros, profiles (ClassHistogram).
	zeroClass int
	// inOrder keeps every span on its caller, in entry order: set when the
	// overflow tier is a HostBackend, whose pager faults depend on the order
	// it sees pages in.
	inOrder bool
	// linkBytesPerCycle is the per-direction rate Cycles prices buddy bytes at:
	// the carve-out's link, +Inf when the overflow tier is anything else.
	linkBytesPerCycle float64

	mu     sync.RWMutex  // guards the allocation list and the address allocator below
	allocs []*Allocation // every allocation with a layout here: residents, and arrivals mid-MoveTo
	// The modeled address allocator: layouts are handed entry slots, slab
	// bytes and carve-out bytes from here, which is what the metadata cache,
	// the link and the host pager are addressed by. No data lives at them.
	deviceOff  int64 // next free device-slab offset
	buddyOff   int64 // next free overflow offset
	totalEntry int
	holes      []region // retired regions available for reuse

	// slab is the primary tier, the GPU's own device memory, where each
	// entry's in-budget sectors live; its meter is Traffic's device bytes.
	// It sits beside traffic, the other counters the data path writes,
	// rather than among the fields a span's pieces only read.
	slab struct {
		capacityMeter
		trafficMeter
	}
	traffic    trafficCounters
	failed     atomic.Bool // device tier killed by Fail, not yet Recovered
	rebuilding atomic.Bool // a Recover is running; a second one is refused
}

// ErrOutOfMemory is returned when an allocation does not fit a tier's
// capacity.
var ErrOutOfMemory = errors.New("core: out of memory")

// NewDevice constructs a device from cfg, applying the final design's
// values for zero fields (see Config).
func NewDevice(cfg Config) *Device {
	if cfg.Codec == nil {
		cfg.Codec = compress.NewBPC()
	}
	if cfg.DeviceBytes == 0 {
		cfg.DeviceBytes = 12 << 30
	}
	overflow := cfg.Overflow
	if overflow == nil {
		overflow = NewCarveoutBackend(cfg.DeviceBytes*carveoutFactor, nvlink.DefaultConfig())
	}
	d := &Device{
		codec:             cfg.Codec,
		zeroClass:         compress.SectorsForBits(compress.ZeroEntryBits(cfg.Codec)),
		overflow:          overflow,
		mcache:            NewMetadataCache(metadataCacheBytes, metadataCacheSlices, metadataCacheWays),
		linkBytesPerCycle: math.Inf(1),
	}
	d.slab.capacityMeter = capacityMeter{name: "device-slab", capacity: cfg.DeviceBytes}
	switch o := overflow.(type) {
	case *CarveoutBackend:
		d.linkBytesPerCycle = o.bytesPerCycle
	case *HostBackend:
		d.inOrder = true
	}
	return d
}

// Close releases nothing: a device owns no goroutine or other resource —
// its spans fan out through par.Run's process-wide helpers — and stays
// fully usable afterwards. It is kept for callers that pair every device
// they build with a Close. Closing twice is a no-op.
func (d *Device) Close() error {
	return nil
}

// layout is one placement of an allocation's entries: a device, a target
// ratio, and the region of that device's modeled address space in which
// §3.3 gives every entry its fixed device slot and its fixed buddy slot. An
// allocation is on exactly one layout, except while a relayout hands its
// entries to the next one. A layout never changes once it is published.
type layout struct {
	dev    *Device
	target TargetRatio
	reg    region
}

// global is entry i's index in the device's modeled entry table: the
// address the metadata cache, the link and the pager see.
func (l *layout) global(i int) int { return l.reg.firstEntry + i }

// Allocation is one compressed cudaMalloc region. It keeps its identity and
// its entries until Close retires it; what moves is its layout: Retarget
// and ApplyReprofile re-lay it out under a new target ratio, MoveTo on
// another device, both while I/O continues (lifecycle.go).
type Allocation struct {
	// Name identifies the allocation.
	Name string
	// EntryCount is the number of 128 B memory-entries.
	EntryCount int

	size   int64                   // requested byte size (EntryCount*128 minus padding)
	shards [entryShards]sync.Mutex // the entry shard locks: entry i under shards[i/64%entryShards]

	// The entries: each one's framed compressed stream, in the stream store
	// (store.go), and its 4-bit sector count, entry i of both guarded by entry
	// i's shard lock; nothing whose size grows with EntryCount holds a
	// pointer. The software keeps them here, beside the layout rather than at
	// its addresses, because the model's 1-bit stream framing would otherwise
	// straddle slot boundaries that hardware metadata absorbs; which layout an
	// entry is placed in — whose slots its traffic is charged to, whose device
	// has to be alive for it, whose codec framed it — is the relayout epoch's
	// business (home). Close drops the store.
	store streamStore
	meta  *MetadataStore

	// ctl serializes the control plane on this allocation: Close, a relayout
	// (Retarget, MoveTo) and its device's Recover hold it from start to end.
	ctl sync.Mutex
	// mu guards the three fields below. A walker pass read-holds it for one
	// sub-batch; the writers (Close, a relayout's begin, hand-back and commit)
	// hold ctl as well.
	mu    sync.RWMutex
	cur   *layout    // the committed layout
	freed bool       // set by Close; all later I/O fails with ErrFreed
	mig   *migration // the relayout in flight, nil in steady state
}

// Size returns the allocation's requested byte size.
func (a *Allocation) Size() int64 { return a.size }

// layout returns the committed layout.
func (a *Allocation) layout() *layout {
	a.mu.RLock()
	l := a.cur
	a.mu.RUnlock()
	return l
}

// Target returns the allocation's current target compression ratio. It can
// change over the allocation's lifetime through Retarget/ApplyReprofile.
func (a *Allocation) Target() TargetRatio { return a.layout().target }

// Device returns the device the allocation currently lives on: the one it
// was allocated on until a MoveTo commits.
func (a *Allocation) Device() *Device { return a.layout().dev }

// Migrating reports whether a relayout (Retarget, MoveTo) is in flight.
func (a *Allocation) Migrating() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.mig != nil
}

// Freed reports whether the allocation has been released with Close.
func (a *Allocation) Freed() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.freed
}

// Overflow returns the device's overflow storage tier for per-tier
// inspection; the device slab's own meter is Traffic's device bytes.
func (d *Device) Overflow() Backend { return d.overflow }

// SameCodecAs reports whether two devices store interchangeable framed
// streams. Codecs are registry identities, so name equality is the framing
// contract; interface equality is deliberately not used (codec values need
// not be comparable).
func (d *Device) SameCodecAs(o *Device) bool {
	return d.codec.Name() == o.codec.Name()
}

// DeviceCapacity returns the device slab's capacity in bytes.
func (d *Device) DeviceCapacity() int64 { return d.slab.Capacity() }

// DeviceUsed returns the device bytes reserved by live allocations.
func (d *Device) DeviceUsed() int64 { return d.slab.Used() }

// BuddyUsed returns the overflow bytes reserved by live allocations.
func (d *Device) BuddyUsed() int64 { return d.overflow.Used() }

// Traffic returns a snapshot of the accumulated traffic counters. The slab
// has one device, so its meter is the device-byte ledger. Buddy bytes are
// counted on the device as well: an overflow tier may be shared between
// devices (a pool over one WithOverflowBackend), and its meter sums them.
func (d *Device) Traffic() Traffic {
	t := &d.traffic
	return Traffic{
		DeviceReadBytes:   d.slab.readBytes.Load(),
		DeviceWriteBytes:  d.slab.writtenBytes.Load(),
		BuddyReadBytes:    t.buddyReadBytes.Load(),
		BuddyWriteBytes:   t.buddyWriteBytes.Load(),
		MetadataFillBytes: t.metadataFillBytes.Load(),
		MigrationBytes:    t.migrationBytes.Load(),
		Reads:             t.reads.Load(),
		Writes:            t.writes.Load(),
		BuddyAccesses:     t.buddyAccesses.Load(),
	}
}

// LinkOccupancy returns the overflow tier's modeled busy core-cycles per
// link direction since the last reset — the bytes its meter counted, priced by
// Cycles; idle gaps between transfers are not occupancy. Zeros for a tier
// without a link.
func (d *Device) LinkOccupancy() (readCycles, writeCycles float64) {
	t := d.overflow.Traffic()
	return d.Cycles(Cost{LinkRead: t.ReadBytes}), d.Cycles(Cost{LinkWrite: t.WrittenBytes})
}

// ResetTraffic clears traffic counters, per-tier counters and the metadata
// cache.
func (d *Device) ResetTraffic() {
	d.traffic.reset()
	d.mcache.Reset()
	d.slab.ResetTraffic()
	d.overflow.ResetTraffic()
}

// MetadataCacheHitRate exposes the metadata cache hit rate (Fig. 5b).
func (d *Device) MetadataCacheHitRate() float64 { return d.mcache.HitRate() }

// CompressionRatio returns the capacity compression the device currently
// achieves: original bytes of live allocations over their device
// reservation. This is the quantity Fig. 7 and Fig. 9 report.
func (d *Device) CompressionRatio() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var orig, dev int64
	for _, a := range d.allocs {
		orig += int64(a.EntryCount) * EntryBytes
		dev += int64(a.EntryCount) * int64(a.Target().DeviceBytes())
	}
	if dev == 0 {
		return 1
	}
	return float64(orig) / float64(dev)
}

// Malloc reserves a compressed allocation of size bytes with the given
// target ratio. The device reservation is size/target; the remainder of
// each entry is reserved in the overflow tier (§3.2). Regions retired by
// Close are reused when a fitting hole exists, so a steady alloc/free cycle
// does not grow the modeled entry table. A size past maxStoreEntries entries
// (about 1.58 GiB, what a stream store can index under any write pattern) is
// refused like one below 1.
func (d *Device) Malloc(name string, size int64, target TargetRatio) (*Allocation, error) {
	if size <= 0 || size > maxStoreEntries*EntryBytes {
		return nil, fmt.Errorf("core: invalid allocation size %d, want 1 to %d", size, int64(maxStoreEntries)*EntryBytes)
	}
	entries := int((size + EntryBytes - 1) / EntryBytes)
	l, err := d.newLayout(entries, target)
	if err != nil {
		return nil, err
	}
	a := &Allocation{
		Name:       name,
		EntryCount: entries,
		size:       size,
		meta:       NewMetadataStore(entries),
		cur:        l,
	}
	a.store.init(entries)
	d.list(a)
	return a, nil
}

// newLayout reserves a layout for entries entries under target on d:
// bytes on both tiers, then a region of the modeled address space. A failed
// device takes no layouts, and a tier without room fails with
// ErrOutOfMemory, nothing reserved.
func (d *Device) newLayout(entries int, target TargetRatio) (*layout, error) {
	if d.failed.Load() {
		return nil, d.errFailed()
	}
	devBytes := int64(entries) * int64(target.DeviceBytes())
	buddyBytes := int64(entries) * int64(target.BuddySlotBytes())
	if err := d.slab.Reserve(devBytes); err != nil {
		return nil, err
	}
	if err := d.overflow.Reserve(buddyBytes); err != nil {
		d.slab.Release(devBytes)
		return nil, err
	}
	l := &layout{dev: d, target: target}
	d.mu.Lock()
	l.reg = d.grabRegion(regionSlots(entries), devBytes, buddyBytes)
	d.mu.Unlock()
	return l, nil
}

// list adds a to the device's allocation list.
func (d *Device) list(a *Allocation) {
	d.mu.Lock()
	d.allocs = append(d.allocs, a)
	d.mu.Unlock()
}

// retire takes layout l off d: its region becomes a reusable hole and its
// reservations return to their tiers. A non-nil unlist leaves the
// allocation list with it — the allocation was freed, or no longer has a
// layout here.
func (d *Device) retire(l *layout, unlist *Allocation) {
	d.mu.Lock()
	if unlist != nil {
		if i := slices.Index(d.allocs, unlist); i >= 0 {
			d.allocs = slices.Delete(d.allocs, i, i+1)
		}
	}
	d.freeRegion(l.reg)
	d.mu.Unlock()
	d.slab.Release(l.reg.devBytes)
	d.overflow.Release(l.reg.buddyBytes)
}

// DeviceAddress returns the device byte address of entry i's first sector.
// Fixed for a given layout: compressibility changes never move data (§3.3);
// only an explicit relayout (Retarget, ApplyReprofile, MoveTo) relocates the
// region.
func (a *Allocation) DeviceAddress(i int) uint64 {
	l := a.layout()
	return uint64(l.reg.deviceOff) + uint64(i)*uint64(l.target.DeviceBytes())
}

// BuddyAddress returns the buddy-memory address (GBBR + offset) of entry
// i's overflow slot. Fixed for a given layout, like DeviceAddress.
func (a *Allocation) BuddyAddress(i int) uint64 {
	l := a.layout()
	return gbbr + uint64(l.reg.buddyOff) + uint64(i)*uint64(l.target.BuddySlotBytes())
}

func (a *Allocation) checkIndex(i int) error {
	if i < 0 || i >= a.EntryCount {
		return fmt.Errorf("core: entry index %d out of range [0,%d)", i, a.EntryCount)
	}
	return nil
}

// shard returns the mutex striping entry i of the allocation. The stripes are
// the allocation's own and the key is the entry's index, nothing taken from
// the current layout, so the same entry keeps the same lock across every
// relayout, to another device included, which is what lets a relayout hand an
// entry from the old layout to the new one atomically. The key is the entry's
// metadata line (§3.2: one 32 B line, 64 entries), so a line's nibbles and
// its word of a relayout's moved set change under one lock, the mover's one
// acquisition for the line's hand-over.
func (a *Allocation) shard(i int) *sync.Mutex {
	return &a.shards[i/EntriesPerMetadataLine%entryShards]
}

// home resolves which layout owns entry i: during a relayout, entries the
// mover has already handed over live in the next layout while the rest
// remain in the committed one. cur and m are a.cur and a.mig as read under
// a.mu, which the caller still holds along with the entry's shard lock; the
// result is stable until both are released.
func home(cur *layout, m *migration, i int) *layout {
	if m != nil && m.has(i) {
		return m.next
	}
	return cur
}

func (a *Allocation) errFreed() error {
	return fmt.Errorf("core: allocation %s: %w", a.Name, ErrFreed)
}

// price is the byte traffic of one access to an entry: dev on the device
// slab, spill over the link to its overflow slot.
type price struct{ dev, spill int }

// prices is the price of one access by target ratio and compressed sector
// count, the split policy of §3.3 tabulated once: the device serves at least
// one sector and at most the entry's device bytes (a 16x entry's 8 B word),
// buddy the sectors past the target (all of a 16x entry's).
var prices = func() (p [Target16x + 1][compress.SectorsPerEntry + 1]price) {
	for t := range p {
		for s := range p[t] {
			p[t][s] = price{min(max(s, 1)*32, TargetRatio(t).DeviceBytes()), TargetRatio(t).OverflowSectors(s) * 32}
		}
	}
	return p
}()

// Price is the byte traffic of one whole-entry access to an entry of target t
// compressed to sectors (0..4), from the §3.3 table above: dev bytes on the
// device, spill bytes over the link to its buddy slot.
func (t TargetRatio) Price(sectors int) (dev, spill int) {
	p := prices[t][sectors]
	return p.dev, p.spill
}

// metadataMiss models the metadata-cache lookups of n memory accesses in a
// row to entries whose metadata shares globalEntry's line and reports a miss
// (only the first can), which costs one 32 B device read (§3.2): the caller's
// tally charges the line, counted separately so the simulator can weigh it.
func (d *Device) metadataMiss(globalEntry, n int) bool {
	return !d.mcache.AccessN(globalEntry, n)
}

// AllocationCount returns the number of live allocations — the cheap form
// of len(Allocations()) for occupancy views that do not need the list.
func (d *Device) AllocationCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.allocs)
}

// Allocations returns a copy of the live allocation list in allocation
// order; mutating the returned slice does not affect the device.
func (d *Device) Allocations() []*Allocation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Allocation, len(d.allocs))
	copy(out, d.allocs)
	return out
}
