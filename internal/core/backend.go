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
// Implementations must be safe for concurrent use: the Device calls Access
// from many goroutines, holding no lock of its own.
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
	// Access accounts a span of accesses to the tier, in the order they
	// happened: what one sub-batch of a walker pass (relocate.go) owes it.
	// The slice is the caller's to reuse once Access returns.
	Access(ops []TierOp)
	// Traffic returns a snapshot of the tier's access counters.
	Traffic() BackendTraffic
	// ResetTraffic clears the access counters (reservations are kept).
	ResetTraffic()
}

// TierOp is one access to a storage tier: Bytes bytes of global entry index
// Entry read, or with Store written.
type TierOp struct {
	Entry int
	Bytes int32
	Store bool
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

// add folds loads reads totaling read bytes and stores writes totaling
// written bytes into the counters, touching only a direction that saw any.
func (t *trafficMeter) add(loads, stores int, read, written uint64) {
	if loads != 0 {
		t.loads.Add(uint64(loads))
		t.readBytes.Add(read)
	}
	if stores != 0 {
		t.stores.Add(uint64(stores))
		t.writtenBytes.Add(written)
	}
}

// Access sums the span into the counters. Sums do not depend on order.
func (t *trafficMeter) Access(ops []TierOp) {
	var loads, stores int
	var read, written uint64
	for _, op := range ops {
		if op.Store {
			stores++
			written += uint64(op.Bytes)
		} else {
			loads++
			read += uint64(op.Bytes)
		}
	}
	t.add(loads, stores, read, written)
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
// each entry's in-budget sectors live at fixed addresses. Its meter is its
// device's Traffic.DeviceReadBytes/DeviceWriteBytes (Device.Traffic).
type SlabBackend struct {
	capacityMeter
	trafficMeter
}

// NewSlabBackend builds a device-memory tier of the given capacity.
func NewSlabBackend(capacity int64) *SlabBackend {
	return &SlabBackend{capacityMeter: capacityMeter{name: "device-slab", capacity: capacity}}
}

// CarveoutBackend is the paper's overflow tier: a carve-out of buddy memory
// reached over the NVLink interconnect (§2.3). The link is full-duplex and
// the GPU never waits on it for a write-back, so a direction's occupancy is
// the bytes it carried over its rate: no queue, and no order to keep. The
// tier meters the bytes; its device prices them (Device.Cycles).
type CarveoutBackend struct {
	capacityMeter
	trafficMeter
	bytesPerCycle float64 // the link's rate per direction
}

// NewCarveoutBackend builds a buddy carve-out tier of the given capacity
// over a link with the given configuration.
func NewCarveoutBackend(capacity int64, link nvlink.Config) *CarveoutBackend {
	return &CarveoutBackend{
		capacityMeter: capacityMeter{name: "buddy-carveout", capacity: capacity},
		bytesPerCycle: nvlink.New(link).BytesPerCycle(), // nvlink defaults the rate fields
	}
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

// Access accounts the span and touches the pager op by op: residency
// depends on the order of accesses, which is why a span arrives in order.
func (b *HostBackend) Access(ops []TierOp) {
	b.trafficMeter.Access(ops)
	for _, op := range ops {
		b.pager.Touch(uint64(op.Entry) * uint64(EntryBytes))
	}
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
