package pool

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"buddy/internal/core"
	"buddy/internal/stats"
)

// Tenant-aware serving: every allocation and every submitted operation
// belongs to a tenant. Tenants carry a capacity quota (admission control
// at Malloc, accounted in stored compressed bytes so reprofiling keeps the
// books honest), a priority class and a weight (the scheduler's inputs —
// see sched.go), and their own serving telemetry: a modeled-latency
// histogram, queue depth, served bytes and admission rejections.
//
// A pool always has at least the default tenant; untenanted traffic
// (plain Pool.Malloc) is accounted there. WithTenants/Config.Tenants adds
// named tenants; Pool.Tenant(name) hands out their Malloc front doors.

// DefaultTenant is the name of the tenant that owns untenanted traffic
// (plain Pool.Malloc). It always exists; configuring it in Config.Tenants
// sets its quota, weight and priority like any other tenant's.
const DefaultTenant = "default"

// ErrQuotaExceeded is returned (wrapped) by Malloc when an allocation
// would push a tenant's stored compressed bytes over its configured
// capacity.
var ErrQuotaExceeded = errors.New("pool: tenant quota exceeded")

// TenantConfig declares one tenant's serving contract.
type TenantConfig struct {
	// CapacityBytes caps the tenant's stored compressed bytes — the sum of
	// its allocations' device reservations (entries x target device bytes),
	// the same unit the device slab is carved in. Malloc fails with
	// ErrQuotaExceeded when the cap would be exceeded; 0 means unlimited.
	CapacityBytes int64
	// Weight is the tenant's deficit-round-robin share within its priority
	// class (long-run served bytes are proportional to weight when the
	// tenant keeps its queues busy). Values < 1 mean 1.
	Weight int
	// Priority is the tenant's scheduling class, 0 (batch) to 3 (most
	// latency-sensitive); out-of-range values are clamped. Higher classes
	// are served strictly first, modulo the anti-starvation escape valve.
	Priority int
}

// latBuckets sizes the fixed log2 latency histogram: bucket b counts
// completions whose modeled latency x (in device+link cycles) has
// bits.Len64(x) == b, so the range covers every uint64.
const latBuckets = 64

// latHist is an alloc-free log2 latency histogram; recording is one
// atomic increment.
type latHist struct {
	buckets [latBuckets]atomic.Uint64
}

//buddy:hotpath
func (h *latHist) record(cycles uint64) {
	b := bits.Len64(cycles)
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.buckets[b].Add(1)
}

// snapshotInto adds the histogram's current counts into counts.
func (h *latHist) snapshotInto(counts *[latBuckets]uint64) {
	for i := range h.buckets {
		counts[i] += h.buckets[i].Load()
	}
}

// LatencyDist summarizes a modeled completion-latency distribution in
// device+link cycles, derived from the fixed-bucket log histogram.
type LatencyDist struct {
	// Count is the number of completed operations observed.
	Count uint64
	// P50, P95 and P99 are interpolated percentiles in modeled cycles.
	P50, P95, P99 float64
}

// distFrom computes the percentile summary of one histogram snapshot.
func distFrom(counts *[latBuckets]uint64) LatencyDist {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return LatencyDist{}
	}
	return LatencyDist{
		Count: total,
		P50:   stats.LogQuantile(counts[:], 0.50),
		P95:   stats.LogQuantile(counts[:], 0.95),
		P99:   stats.LogQuantile(counts[:], 0.99),
	}
}

// tenant is one tenant's runtime state.
type tenant struct {
	name     string
	idx      int   // index into Pool.tenants and every sched's rings
	cls      int   // clamped priority class
	weight   int64 // clamped DRR weight
	capacity int64 // 0 = unlimited

	// admitMu makes the quota check-and-charge atomic against concurrent
	// Mallocs; releases and reprofile adjustments go straight to the
	// atomic counter.
	admitMu sync.Mutex
	stored  atomic.Int64 // charged compressed device bytes

	rejected    atomic.Uint64 // Mallocs refused by admission control
	queued      atomic.Int64  // tasks currently on submission queues
	submitted   atomic.Uint64 // operations accepted, queued or served in place
	servedBytes atomic.Uint64 // payload bytes of completed operations
	lat         latHist
}

// admit charges need stored bytes against the tenant's quota, or rejects
// with ErrQuotaExceeded when the cap would be exceeded.
//
//buddy:hotpath
func (t *tenant) admit(name string, need int64) error {
	t.admitMu.Lock()
	if t.capacity > 0 && t.stored.Load()+need > t.capacity {
		held := t.stored.Load()
		t.admitMu.Unlock()
		t.rejected.Add(1)
		return fmt.Errorf("pool: tenant %q: Malloc %q needs %d stored bytes, %d of %d in use: %w",
			t.name, name, need, held, t.capacity, ErrQuotaExceeded)
	}
	t.stored.Add(need)
	t.admitMu.Unlock()
	return nil
}

// release returns stored bytes to the tenant's quota.
func (t *tenant) release(n int64) {
	if n != 0 {
		t.stored.Add(-n)
	}
}

// observe records one completed operation: its modeled latency and its
// payload bytes.
//
//buddy:hotpath
func (t *tenant) observe(cycles uint64, n int) {
	t.lat.record(cycles)
	t.servedBytes.Add(uint64(n))
}

// TenantStats is one tenant's slice of the pool's serving telemetry.
type TenantStats struct {
	// Name is the tenant's name; Priority and Weight echo its (clamped)
	// scheduling configuration.
	Name     string
	Priority int
	Weight   int
	// CapacityBytes is the admission quota (0 = unlimited) and StoredBytes
	// the compressed device bytes currently charged against it.
	CapacityBytes int64
	StoredBytes   int64
	// Rejected counts Mallocs refused by admission control.
	Rejected uint64
	// Submitted counts accepted operations — queued or served in place on
	// their submitter — and QueueDepth the tasks queued at snapshot time.
	Submitted  uint64
	QueueDepth int64
	// ServedBytes is the payload of completed operations.
	ServedBytes uint64
	// Latency is the modeled completion-latency distribution in
	// device+link cycles (queueing included: an operation is stamped with
	// its shard's virtual clock at submit and observed at completion).
	Latency LatencyDist
}

// stats snapshots the tenant's telemetry.
func (t *tenant) stats() TenantStats {
	var counts [latBuckets]uint64
	t.lat.snapshotInto(&counts)
	return TenantStats{
		Name:          t.name,
		Priority:      t.cls,
		Weight:        int(t.weight),
		CapacityBytes: t.capacity,
		StoredBytes:   t.stored.Load(),
		Rejected:      t.rejected.Load(),
		Submitted:     t.submitted.Load(),
		QueueDepth:    t.queued.Load(),
		ServedBytes:   t.servedBytes.Load(),
		Latency:       distFrom(&counts),
	}
}

// newTenant builds one tenant with its configuration clamped.
func newTenant(name string, idx int, cfg TenantConfig) *tenant {
	cls := cfg.Priority
	if cls < 0 {
		cls = 0
	}
	if cls >= numClasses {
		cls = numClasses - 1
	}
	w := int64(cfg.Weight)
	if w < 1 {
		w = 1
	}
	capacity := cfg.CapacityBytes
	if capacity < 0 {
		capacity = 0
	}
	return &tenant{name: name, idx: idx, cls: cls, weight: w, capacity: capacity}
}

// buildTenants materializes a pool's tenant set from its configuration:
// the default tenant first (configured by a DefaultTenant entry, if any),
// then the named tenants in sorted order so indexes — and Stats order —
// are deterministic regardless of map iteration.
func buildTenants(cfgs map[string]TenantConfig) ([]*tenant, map[string]*tenant) {
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		if name != DefaultTenant {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tens := make([]*tenant, 0, len(names)+1)
	tens = append(tens, newTenant(DefaultTenant, 0, cfgs[DefaultTenant]))
	for _, name := range names {
		tens = append(tens, newTenant(name, len(tens), cfgs[name]))
	}
	byName := make(map[string]*tenant, len(tens))
	for _, t := range tens {
		byName[t.name] = t
	}
	return tens, byName
}

// quotaFor is the stored-bytes charge of an allocation: its entry count
// times the per-entry device reservation of its target ratio — exactly
// what the allocation holds on the device slab, so quotas track
// compression and survive reprofiling and cross-shard migration (a move
// changes the shard, not the reservation).
func quotaFor(size int64, t core.TargetRatio) int64 {
	entries := (size + core.EntryBytes - 1) / core.EntryBytes
	return entries * int64(t.DeviceBytes())
}

// Tenant is a named tenant's front door: Malloc places allocations
// charged against the tenant's quota, and Stats reads its serving
// telemetry. Obtain one with Pool.Tenant.
type Tenant struct {
	p *Pool
	t *tenant
}

// Tenant returns the named tenant's front door. The name must have been
// configured in Config.Tenants (or be DefaultTenant, which always
// exists).
func (p *Pool) Tenant(name string) (*Tenant, error) {
	t, ok := p.tenantByName[name]
	if !ok {
		return nil, fmt.Errorf("pool: unknown tenant %q", name)
	}
	return &Tenant{p: p, t: t}, nil
}

// TenantNames returns the pool's tenant names, default tenant first, the
// rest in sorted order — the same order Stats reports them.
func (p *Pool) TenantNames() []string {
	out := make([]string, len(p.tenants))
	for i, t := range p.tenants {
		out[i] = t.name
	}
	return out
}

// Name returns the tenant's name.
func (tn *Tenant) Name() string { return tn.t.name }

// Malloc places an allocation owned by the tenant: admission control
// charges the allocation's stored compressed bytes against the tenant's
// quota (failing with ErrQuotaExceeded when it does not fit) before
// placement; Handle.Close returns the charge. I/O submitted on the
// returned handle is scheduled in the tenant's priority class and
// weighted share.
func (tn *Tenant) Malloc(name string, size int64, target core.TargetRatio) (*Handle, error) {
	return tn.p.mallocTenant(tn.t, name, size, target)
}

// Stats snapshots the tenant's serving telemetry.
func (tn *Tenant) Stats() TenantStats { return tn.t.stats() }
