package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"buddy/internal/nvlink"
	"buddy/internal/um"
)

// Backend is one storage tier for compressed sectors. A Device composes two
// tiers: a primary tier holding each entry's in-budget sectors and an
// overflow tier holding the sectors that spill past the target ratio. The
// paper's design is device slab + NVLink buddy carve-out; the interface
// exists so other tiers (host unified memory, peer GPUs, disaggregated
// appliances) slot in without touching the device.
//
// Implementations must be safe for concurrent use: the Device calls Store
// and Load from many goroutines.
type Backend interface {
	// Name identifies the tier in stats and errors.
	Name() string
	// Capacity returns the tier's byte capacity; negative means unbounded.
	Capacity() int64
	// Used returns the bytes currently reserved by live allocations.
	Used() int64
	// Reserve claims n bytes at allocation time, failing with an error
	// wrapping ErrOutOfMemory when the tier is full.
	Reserve(n int64) error
	// Release returns previously reserved bytes. Releasing more than is
	// currently reserved is a lifecycle accounting bug and panics.
	Release(n int64)
	// Store accounts a write of n bytes belonging to global entry index
	// entry.
	Store(entry int, n int)
	// Load accounts a read of n bytes belonging to global entry index
	// entry.
	Load(entry int, n int)
	// Traffic returns a snapshot of the tier's access counters.
	Traffic() BackendTraffic
	// ResetTraffic clears the access counters (reservations are kept).
	ResetTraffic()
}

// BackendTraffic is a snapshot of one tier's access counters.
type BackendTraffic struct {
	// Loads and Stores count entry-level operations that touched the tier.
	Loads, Stores uint64
	// ReadBytes and WrittenBytes count data volume per direction.
	ReadBytes, WrittenBytes uint64
	// Faults and MigratedBytes count demand-paging activity; zero for tiers
	// without a pager (device slab, buddy carve-out).
	Faults, MigratedBytes uint64
}

// capacityMeter implements the Reserve/Release/Used accounting shared by
// every backend. A negative capacity means unbounded.
type capacityMeter struct {
	name     string
	capacity int64

	mu   sync.Mutex
	used int64
}

func (m *capacityMeter) Name() string    { return m.name }
func (m *capacityMeter) Capacity() int64 { return m.capacity }

func (m *capacityMeter) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

func (m *capacityMeter) Reserve(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity >= 0 && m.used+n > m.capacity {
		return fmt.Errorf("%w: %s (%d + %d > %d)", ErrOutOfMemory, m.name, m.used, n, m.capacity)
	}
	m.used += n
	return nil
}

func (m *capacityMeter) Release(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 || n > m.used {
		// A double free or mismatched Reserve/Release pair; clamping would
		// silently corrupt the Used() accounting every lifecycle test pins.
		panic(fmt.Sprintf("core: %s: Release(%d) with %d bytes reserved", m.name, n, m.used))
	}
	m.used -= n
}

// trafficMeter implements the lock-free access counters shared by every
// backend.
type trafficMeter struct {
	loads, stores           atomic.Uint64
	readBytes, writtenBytes atomic.Uint64
}

func (t *trafficMeter) Store(_ int, n int) {
	t.stores.Add(1)
	t.writtenBytes.Add(uint64(n))
}

func (t *trafficMeter) Load(_ int, n int) {
	t.loads.Add(1)
	t.readBytes.Add(uint64(n))
}

func (t *trafficMeter) Traffic() BackendTraffic {
	return BackendTraffic{
		Loads:        t.loads.Load(),
		Stores:       t.stores.Load(),
		ReadBytes:    t.readBytes.Load(),
		WrittenBytes: t.writtenBytes.Load(),
	}
}

func (t *trafficMeter) ResetTraffic() {
	t.loads.Store(0)
	t.stores.Store(0)
	t.readBytes.Store(0)
	t.writtenBytes.Store(0)
}

// SlabBackend is the primary tier: the GPU's own device-memory slab, where
// each entry's in-budget sectors live at fixed addresses.
type SlabBackend struct {
	capacityMeter
	trafficMeter
}

// NewSlabBackend builds a device-memory tier of the given capacity.
func NewSlabBackend(capacity int64) *SlabBackend {
	return &SlabBackend{capacityMeter: capacityMeter{name: "device-slab", capacity: capacity}}
}

// StoreSpan folds k entry writes totaling n bytes into the meter with one
// pair of atomic adds — the walker's per-sub-batch accounting. The
// totals are identical to k individual Store calls.
func (b *SlabBackend) StoreSpan(k int, n uint64) {
	b.stores.Add(uint64(k))
	b.writtenBytes.Add(n)
}

// LoadSpan folds k entry reads totaling n bytes into the meter, like
// StoreSpan.
func (b *SlabBackend) LoadSpan(k int, n uint64) {
	b.loads.Add(uint64(k))
	b.readBytes.Add(n)
}

// CarveoutBackend is the paper's overflow tier: a carve-out of buddy memory
// reached over the NVLink interconnect (§2.3). Transfers are pushed through
// an nvlink.Link so link occupancy per direction is modeled alongside the
// byte counters.
type CarveoutBackend struct {
	capacityMeter
	trafficMeter

	mu   sync.Mutex
	link *nvlink.Link
}

// NewCarveoutBackend builds a buddy carve-out tier of the given capacity
// over a link with the given configuration.
func NewCarveoutBackend(capacity int64, link nvlink.Config) *CarveoutBackend {
	return &CarveoutBackend{
		capacityMeter: capacityMeter{name: "buddy-carveout", capacity: capacity},
		link:          nvlink.New(link),
	}
}

// Store accounts an overflow write: bytes drain to buddy memory on the
// write direction of the link.
func (b *CarveoutBackend) Store(entry int, n int) {
	b.trafficMeter.Store(entry, n)
	b.mu.Lock()
	b.link.Drain(0, nvlink.Write, n)
	b.mu.Unlock()
}

// Load accounts an overflow read on the read direction of the link.
func (b *CarveoutBackend) Load(entry int, n int) {
	b.trafficMeter.Load(entry, n)
	b.mu.Lock()
	b.link.Request(0, nvlink.Read, n)
	b.mu.Unlock()
}

// accessSpan replays a walker sub-batch's overflow accesses in order
// under one acquisition of the link mutex: the same per-access Request and
// Drain calls Load and Store issue, so the link's busy cycles per direction
// are bit-identical, and one add per meter counter.
func (b *CarveoutBackend) accessSpan(ops []tierOp) {
	var loads, stores, read, written uint64
	b.mu.Lock()
	for _, op := range ops {
		if op.store {
			stores++
			written += uint64(op.n)
			b.link.Drain(0, nvlink.Write, int(op.n))
		} else {
			loads++
			read += uint64(op.n)
			b.link.Request(0, nvlink.Read, int(op.n))
		}
	}
	b.mu.Unlock()
	b.loads.Add(loads)
	b.readBytes.Add(read)
	b.stores.Add(stores)
	b.writtenBytes.Add(written)
}

// LinkOccupancy returns the modeled busy core-cycles per link direction:
// how long the interconnect has been transferring in each direction since
// the last reset. Idle gaps between transfers are not occupancy.
func (b *CarveoutBackend) LinkOccupancy() (readCycles, writeCycles float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.link.BusyCycles(nvlink.Read), b.link.BusyCycles(nvlink.Write)
}

// ResetTraffic clears counters and the link queues.
func (b *CarveoutBackend) ResetTraffic() {
	b.trafficMeter.ResetTraffic()
	b.mu.Lock()
	b.link.Reset()
	b.mu.Unlock()
}

// HostBackend is the fallback overflow tier when no buddy memory is
// attached: overflow sectors live in host unified memory behind a demand
// pager (§4.3's software baseline, repurposed as a tier). Capacity is
// unbounded — host memory is large — but every cold page costs a modeled
// fault migration, which the tier's Traffic exposes.
type HostBackend struct {
	capacityMeter
	trafficMeter
	pager *um.Pager
}

// NewHostBackend builds a host unified-memory tier. pageBytes is the
// migration granularity (0 = the um default) and residentBytes bounds the
// pages kept hot on the device side of the link.
func NewHostBackend(pageBytes int, residentBytes int64) *HostBackend {
	return &HostBackend{
		capacityMeter: capacityMeter{name: "host-um", capacity: -1},
		pager:         um.NewPager(pageBytes, residentBytes),
	}
}

// Store accounts an overflow write, touching the pager.
func (b *HostBackend) Store(entry int, n int) {
	b.trafficMeter.Store(entry, n)
	b.pager.Touch(uint64(entry) * uint64(EntryBytes))
}

// Load accounts an overflow read, touching the pager.
func (b *HostBackend) Load(entry int, n int) {
	b.trafficMeter.Load(entry, n)
	b.pager.Touch(uint64(entry) * uint64(EntryBytes))
}

// Traffic includes the pager's fault statistics.
func (b *HostBackend) Traffic() BackendTraffic {
	tr := b.trafficMeter.Traffic()
	tr.Faults, tr.MigratedBytes = b.pager.Stats()
	return tr
}

// ResetTraffic clears counters and pager residency.
func (b *HostBackend) ResetTraffic() {
	b.trafficMeter.ResetTraffic()
	b.pager.Reset()
}
