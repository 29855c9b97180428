// Package pool implements the fleet-serving layer over the single-device
// driver: a shard router that places allocations across N independent
// core.Devices, spills to the next shard when one runs out of memory,
// serves many concurrent clients through per-shard bounded submission
// queues, and aggregates per-device telemetry into one view. One Device is
// one GPU with one buddy-memory link; the pool is the front door a serving
// system puts in front of the fleet.
//
// Placement is not final: MigrateHandle, ApplyReprofile (new targets),
// Drain (maintenance) and Rebalance (a saturated shard) plan moves, and one
// executor makes each through core's relayout (migrate.go); Recover
// rebuilds a failed shard from the buddy carve-out. These are calls: the pool
// owns no goroutine but its shard workers, so recovery and rebalancing run
// when, and on whichever goroutine, the caller chooses.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"buddy/internal/core"
)

// defaultQueueDepth is the default per-shard submission queue depth. It is
// deliberately machine-independent: the queue backlog is the coalescing
// window — a worker can only merge adjacent small submissions into one
// batch span if the queue lets them accumulate — so tying the depth to
// GOMAXPROCS would turn a small machine into an uncoalescible one.
const defaultQueueDepth = 64

// Config parameterizes a Pool.
type Config struct {
	// Placement chooses the shard each allocation is first offered to
	// (default LeastUsed).
	Placement Placement
	// QueueDepth bounds each shard's async submission queue; Submit blocks
	// when the owning shard's queue is full (backpressure instead of
	// unbounded buffering). The backlog doubles as the worker's coalescing
	// window. Default: defaultQueueDepth (64).
	QueueDepth int
	// Workers is the number of worker goroutines draining each shard's
	// queue. Default: GOMAXPROCS spread across the shards, at least one
	// per shard. Each worker's bulk operations additionally fan out
	// over idle cores (par.Run). One worker keeps a shard FIFO per
	// submitter (last write wins per offset); with more, workers run
	// windows of the same ring concurrently and that order is given up.
	Workers int
	// Injector, when non-nil, is attached to the pool: its Kill(shard)
	// marks that shard's device tier failed mid-serve until Recover
	// rebuilds it (the fault-injection hook the heal experiment drives).
	Injector *FailureInjector
	// Tenants declares the pool's named tenants: capacity quota, scheduling
	// weight and priority class per name (see TenantConfig). The default
	// tenant always exists and owns untenanted traffic; an entry named
	// DefaultTenant configures it. Each tenant gets its own QueueDepth-deep
	// ring on every shard, so one tenant's backlog never consumes another's
	// queue space.
	Tenants map[string]TenantConfig
}

// ErrClosed is returned (wrapped) by every submit and control call made
// once Pool.Close has begun.
var ErrClosed = errors.New("pool: closed")

// Pool is a shard router over N independent devices. It is safe for
// concurrent use by multiple goroutines.
type Pool struct {
	devices []*core.Device
	place   Placement

	allocMu sync.Mutex // serializes placement snapshot + reservation

	// Registry: every live Handle the pool has issued, by id, so maintenance
	// (drain, rebalance, reprofile) can find what lives where. Nothing else
	// is taken under routeMu.
	routeMu sync.Mutex
	handles map[uint64]*Handle
	nextID  atomic.Uint64

	// Tenancy: tenants[0] is the default tenant; the rest follow in sorted
	// name order. Every shard's scheduler indexes its rings by tenant.idx.
	tenants      []*tenant
	tenantByName map[string]*tenant

	scheds []*sched       // per shard: the scheduler and its lifecycle word
	wg     sync.WaitGroup // shard workers

	async asyncCounters

	// rebal is Rebalance's scan state, kept between calls (rebalance.go).
	rebal *rebalancer
}

// asyncCounters is the async serving path's telemetry.
type asyncCounters struct {
	coalescedTasks atomic.Uint64
	coalescedRuns  atomic.Uint64
}

// New builds a pool over the given devices. The devices must be freshly
// constructed or otherwise dedicated to the pool: the pool routes by its
// own handle table and aggregates the devices' telemetry wholesale.
func New(devices []*core.Device, cfg Config) (*Pool, error) {
	if len(devices) == 0 {
		return nil, errors.New("pool: need at least one device")
	}
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("pool: device %d is nil", i)
		}
	}
	if cfg.Placement == nil {
		cfg.Placement = LeastUsed()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = (runtime.GOMAXPROCS(0) + len(devices) - 1) / len(devices)
	}
	p := &Pool{
		devices: devices,
		place:   cfg.Placement,
		handles: make(map[uint64]*Handle),
		scheds:  make([]*sched, len(devices)),
		rebal:   newRebalancer(len(devices)),
	}
	p.tenants, p.tenantByName = buildTenants(cfg.Tenants)
	for i := range p.scheds {
		p.scheds[i] = newSched(devices[i], p.tenants, cfg.QueueDepth)
		for w := 0; w < workers; w++ {
			p.wg.Add(1)
			go p.worker(i)
		}
	}
	if cfg.Injector != nil {
		cfg.Injector.p.Store(p)
	}
	return p, nil
}

// Shards returns the number of devices behind the pool.
func (p *Pool) Shards() int { return len(p.devices) }

// Device returns shard i's device for per-shard inspection.
func (p *Pool) Device(i int) *core.Device { return p.devices[i] }

// Placement returns the pool's placement policy.
func (p *Pool) Placement() Placement { return p.place }

// loads snapshots per-shard occupancy for a placement decision. The slice
// is freshly allocated per call: Placement.Pick is user-supplied code that
// may legitimately retain what it is handed (a policy tracking load history,
// say), so the pool never exposes a reused scratch buffer — an earlier
// revision aliased one here and a retaining policy saw it silently mutate
// under later Mallocs. Malloc holds allocMu across the snapshot and the
// reservation, which makes them one atomic placement step.
func (p *Pool) loads() []ShardLoad {
	out := make([]ShardLoad, len(p.devices))
	for i := range out {
		out[i] = p.load(i)
	}
	return out
}

// load reads shard i's occupancy and lifecycle flags.
func (p *Pool) load(i int) ShardLoad {
	d, st := p.devices[i], p.scheds[i].life.Load()&stateMask
	return ShardLoad{
		Shard:          i,
		DeviceUsed:     d.DeviceUsed(),
		DeviceCapacity: d.DeviceCapacity(),
		BuddyUsed:      d.BuddyUsed(),
		Allocs:         d.AllocationCount(),
		Draining:       st == shardDraining,
		Failed:         st == shardFailed,
	}
}

// headroom renders the per-shard free device bytes of a load snapshot for
// the capacity-exhaustion error.
func headroom(loads []ShardLoad) string {
	var b strings.Builder
	for i, l := range loads {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case l.Failed:
			fmt.Fprintf(&b, "%d:failed", l.Shard)
		case l.Draining:
			fmt.Fprintf(&b, "%d:draining", l.Shard)
		default:
			fmt.Fprintf(&b, "%d:%d", l.Shard, l.DeviceCapacity-l.DeviceUsed)
		}
	}
	return b.String()
}

// Malloc places a compressed allocation on a shard chosen by the pool's
// placement policy, transparently spilling to the next shard (in index
// order, wrapping) when the chosen one is out of memory. Draining and
// failed shards accept no placements. The returned handle routes all later
// I/O to whichever device currently owns the allocation. When every
// available shard is full the error wraps each shard's core.ErrOutOfMemory
// and lists the per-shard free device bytes of the placement snapshot.
// The allocation is owned by — and charged against — the default tenant;
// see Pool.Tenant for named-tenant placement.
func (p *Pool) Malloc(name string, size int64, target core.TargetRatio) (*Handle, error) {
	return p.mallocTenant(p.tenants[0], name, size, target)
}

// mallocTenant is Malloc with an owning tenant: admission control charges
// the allocation's stored compressed bytes against the tenant's quota
// before placement, and refunds the charge when no shard fits.
func (p *Pool) mallocTenant(tn *tenant, name string, size int64, target core.TargetRatio) (*Handle, error) {
	if p.closing() {
		return nil, fmt.Errorf("pool: Malloc %q: %w", name, ErrClosed)
	}
	need := quotaFor(size, target)
	if err := tn.admit(name, need); err != nil {
		return nil, err
	}
	h, err := p.place1(tn, need, name, size, target)
	if err != nil {
		tn.release(need)
		return nil, err
	}
	return h, nil
}

// place1 runs one placement attempt (with spill-over) for an admitted
// allocation. Caller owns the tenant charge and refunds it on error.
func (p *Pool) place1(tn *tenant, need int64, name string, size int64, target core.TargetRatio) (*Handle, error) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	loads := p.loads()
	start := p.place.Pick(loads, size)
	if start < 0 || start >= len(p.devices) {
		return nil, fmt.Errorf("pool: placement %s picked shard %d of %d",
			p.place.Name(), start, len(p.devices))
	}
	var errs []error
	for k := 0; k < len(p.devices); k++ {
		i := (start + k) % len(p.devices)
		if p.scheds[i].life.Load()&stateMask != shardHealthy {
			continue
		}
		a, err := p.devices[i].Malloc(name, size, target)
		if err == nil {
			return p.adopt(i, a, tn, need), nil
		}
		if !errors.Is(err, core.ErrOutOfMemory) {
			return nil, err
		}
		errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("pool: %q (%d bytes): no shard accepts placements (%s)",
			name, size, headroom(loads))
	}
	return nil, fmt.Errorf("pool: %q (%d bytes) fits no shard (placement %s; free device bytes per shard: %s): %w",
		name, size, p.place.Name(), headroom(loads), errors.Join(errs...))
}

// adopt wraps a placed allocation in a registered canonical handle owned
// by the given tenant, carrying the quota bytes charged for it.
func (p *Pool) adopt(shard int, a *core.Allocation, tn *tenant, quota int64) *Handle {
	h := &Handle{pool: p, id: p.nextID.Add(1), tn: tn, a: a}
	h.quota.Store(quota)
	h.shard.Store(int32(shard))
	p.routeMu.Lock()
	p.handles[h.id] = h
	p.routeMu.Unlock()
	return h
}

// forget removes a closed handle from the routing registry.
func (p *Pool) forget(h *Handle) {
	p.routeMu.Lock()
	delete(p.handles, h.id)
	p.routeMu.Unlock()
}

// Handles returns the pool's live handles, ordered by current shard then by
// allocation age. Handles are canonical: the pool returns the same *Handle
// it issued at Malloc.
func (p *Pool) Handles() []*Handle {
	p.routeMu.Lock()
	out := make([]*Handle, 0, len(p.handles))
	for _, h := range p.handles {
		out = append(out, h)
	}
	p.routeMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Shard(), out[j].Shard()
		if si != sj {
			return si < sj
		}
		return out[i].id < out[j].id
	})
	return out
}

// Close retires submission and the whole control plane: every later
// submit, Malloc, MigrateHandle, Drain, Reopen, Rebalance, ApplyReprofile,
// Recover and Kill fails with ErrClosed. It waits for the calls in flight
// on each shard and for the queued operations, which complete normally;
// submits parked on a full queue fail with ErrClosed. Once it returns no
// pool call touches a device. Handles keep their I/O and Close. Closing
// twice is an error.
func (p *Pool) Close() error {
	// Shard 0 closes first, so a second Close stops there and closing reads it.
	for _, s := range p.scheds {
		if s.close() {
			return ErrClosed
		}
	}
	p.wg.Wait()
	return nil
}

// closing reports whether Close has begun.
func (p *Pool) closing() bool { return p.scheds[0].life.Load()&closedBit != 0 }

// Handle is a placed allocation. The core allocation behind it is the same
// one for the handle's whole life — a live migration moves the allocation's
// layout to another device, not the handle to another allocation — so I/O
// goes straight to it and lands on whichever device owns each entry. What
// the handle adds is the pool's side of the placement: which shard's queue
// and modeled clock serve it, the owning tenant and the quota charged there.
// It satisfies io.ReaderAt, io.WriterAt and io.Closer like the underlying
// Allocation.
type Handle struct {
	pool *Pool
	id   uint64 // stable identity: registry key, age order
	a    *core.Allocation

	// tn is the owning tenant; quota is the stored compressed bytes
	// charged against it — Swap'd to zero exactly once on Close, and
	// Swap'd to the new target's reservation under ctl by every move.
	tn    *tenant
	quota atomic.Int64

	// ctl serializes the pool's control plane on the handle (Close, and
	// apply, which makes every move); it is taken before the allocation's
	// own ctl and before pool.routeMu (Close holds it across forget; nothing
	// acquires it under routeMu). shard is written under it, once a move has
	// committed, and read without it.
	ctl   sync.Mutex
	shard atomic.Int32
}

// Shard returns the index of the shard serving the allocation: the one
// whose device holds it, except during a live migration, when it stays the
// source shard until the move has committed.
func (h *Handle) Shard() int { return int(h.shard.Load()) }

// Alloc returns the underlying device allocation for entry-granular tools.
// It is the same allocation before, during and after a migration; ask it
// (Allocation.Device) rather than Shard for the device it is on when the
// two must agree.
func (h *Handle) Alloc() *core.Allocation { return h.a }

// Name returns the allocation's name.
func (h *Handle) Name() string { return h.a.Name }

// Size returns the allocation's requested byte size.
func (h *Handle) Size() int64 { return h.a.Size() }

// Target returns the allocation's current target compression ratio.
func (h *Handle) Target() core.TargetRatio { return h.a.Target() }

// ReadAt reads through whichever device currently owns each entry; see
// core.Allocation.ReadAt for the byte-addressing contract.
//
//buddy:hotpath
func (h *Handle) ReadAt(p []byte, off int64) (int, error) { return h.a.ReadAt(p, off) }

// WriteAt writes through whichever device currently owns each entry; see
// core.Allocation.WriteAt.
//
//buddy:hotpath
func (h *Handle) WriteAt(p []byte, off int64) (int, error) { return h.a.WriteAt(p, off) }

// Close frees the allocation on its owning device, returns its stored
// bytes to the owning tenant's quota, and retires the handle from the
// pool's registry. An in-flight migration completes (or is handed back)
// before the free — ctl serializes the two.
func (h *Handle) Close() error {
	h.ctl.Lock()
	defer h.ctl.Unlock()
	err := h.a.Close()
	h.pool.forget(h)
	h.tn.release(h.quota.Swap(0))
	return err
}
