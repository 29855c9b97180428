package buddy

import (
	"time"

	"buddy/internal/core"
	"buddy/internal/nvlink"
	"buddy/internal/pool"
)

// config gathers everything the options configure: the per-device core
// configuration and the pool's. The overflow tier is carried as a factory:
// WithHostFallback builds one per shard of a pool (a Backend holds capacity
// and pager state), as the default carve-out is; WithOverflowBackend hands
// every shard the same instance.
type config struct {
	core     core.Config
	overflow func() Backend
	shards   int
	pool     pool.Config
}

// Option configures a Device built by New or a Pool built by NewPool. The
// zero configuration is the paper's final design (§3.5): BPC compression, a
// 12 GB device, a 3x NVLink buddy carve-out and a 4-way sliced metadata
// cache. Device-level options apply to every shard of a pool; pool-level
// options (WithShards, WithPlacement, WithQueueDepth) are ignored by New.
type Option func(*config)

// New creates a Buddy Compression device from the paper's final-design
// defaults, adjusted by the given options:
//
//	dev := buddy.New(
//		buddy.WithDeviceBytes(1<<30),
//		buddy.WithCodec(buddy.NewBPC()),
//	)
func New(opts ...Option) *Device {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	c := cfg.core
	if cfg.overflow != nil {
		c.Overflow = cfg.overflow()
	}
	return core.NewDevice(c)
}

// NewPool creates a sharded pool of devices behind one front door: N
// identically configured devices (one per shard, each with its own buddy
// carve-out and metadata cache), a placement policy routing allocations
// across them with transparent spill-over, and per-shard bounded queues
// serving asynchronous I/O:
//
//	p, err := buddy.NewPool(
//		buddy.WithShards(4),
//		buddy.WithDeviceBytes(1<<30),
//		buddy.WithPlacement(buddy.PlaceRoundRobin()),
//	)
//
// The default is a single shard with least-used placement — a 1-shard pool
// behaves byte-identically to a bare Device.
func NewPool(opts ...Option) (*Pool, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	n := cfg.shards
	if n <= 0 {
		n = 1
	}
	devices := make([]*core.Device, n)
	for i := range devices {
		c := cfg.core
		if cfg.overflow != nil {
			c.Overflow = cfg.overflow()
		}
		devices[i] = core.NewDevice(c)
	}
	return pool.New(devices, cfg.pool)
}

// WithShards sets the number of devices behind a NewPool (default 1). Each
// shard is a full Device with its own slab, carve-out and metadata cache;
// aggregate pool capacity is shards x WithDeviceBytes.
func WithShards(n int) Option {
	return func(cfg *config) { cfg.shards = n }
}

// WithPlacement selects the pool's placement policy (default
// PlaceLeastUsed). See PlaceLeastUsed, PlaceRoundRobin and PlaceShard.
func WithPlacement(p Placement) Option {
	return func(cfg *config) { cfg.pool.Placement = p }
}

// WithQueueDepth bounds each shard's asynchronous submission queue:
// Pool.SubmitRead/SubmitWrite block when the owning shard already has this
// many operations queued (backpressure instead of unbounded buffering).
// The default is 64.
func WithQueueDepth(n int) Option {
	return func(cfg *config) { cfg.pool.QueueDepth = n }
}

// WithTenants declares a NewPool's named tenants: per-tenant capacity
// quota (admission control at Malloc, accounted in stored compressed
// bytes — ErrQuotaExceeded when exceeded), weighted-fair scheduling share
// and priority class. Obtain a tenant's Malloc front door with
// Pool.Tenant(name); per-tenant latency distributions and quota occupancy
// appear in Pool.Stats().Tenants. The default tenant (untenanted traffic)
// always exists; an entry named DefaultTenant configures it. Ignored by
// New.
//
//	p, err := buddy.NewPool(
//		buddy.WithShards(4),
//		buddy.WithTenants(map[string]buddy.TenantConfig{
//			"batch":   {Weight: 3},
//			"latency": {Priority: 2, CapacityBytes: 256 << 20},
//		}),
//	)
func WithTenants(tenants map[string]TenantConfig) Option {
	return func(cfg *config) { cfg.pool.Tenants = tenants }
}

// WithFailureInjector attaches a fault-injection hook to a NewPool: the
// injector's Kill(shard) marks that shard's device tier failed mid-serve
// (operations fail with errors wrapping ErrDeviceFailed) until
// Pool.Recover — or the AutoRecover supervisor — rebuilds it from the
// buddy carve-out. Ignored by New.
func WithFailureInjector(fi *FailureInjector) Option {
	return func(cfg *config) { cfg.pool.Injector = fi }
}

// WithAutoRecover starts the pool's maintenance supervisor: a killed
// shard's device tier is rebuilt from the buddy carve-out automatically.
// onRecover, if non-nil, observes each recovery (instrumentation; it runs
// on the supervisor goroutine). Ignored by New.
func WithAutoRecover(onRecover func(RecoveryStats)) Option {
	return func(cfg *config) {
		cfg.pool.AutoRecover = true
		cfg.pool.OnRecover = onRecover
	}
}

// WithRebalance enables the pool's rebalancer watcher: every interval the
// supervisor scans per-shard pressure (device occupancy plus link busy
// cycles) and live-migrates an allocation off the most saturated shard when
// the hottest-to-coldest pressure skew reaches 0.5 (half a device of
// imbalance, a strongly lopsided link, or some of both). Ignored by New.
func WithRebalance(interval time.Duration) Option {
	return func(cfg *config) {
		cfg.pool.RebalanceInterval = interval
	}
}

// WithCodec selects the memory compression algorithm (default BPC, §2.4).
// See Codecs for the implemented baselines. The codec must be safe for
// concurrent use: the bulk data path fans it out across idle cores even
// within a single ReadAt/WriteAt/Memcpy call (all built-in algorithms are
// stateless and qualify).
func WithCodec(c Codec) Option {
	return func(cfg *config) { cfg.core.Codec = c }
}

// WithDeviceBytes sets the GPU device-memory capacity available for
// compressed allocations (default 12 GB). For a pool this is the per-shard
// capacity.
func WithDeviceBytes(n int64) Option {
	return func(cfg *config) { cfg.core.DeviceBytes = n }
}

// LinkConfig describes the interconnect to the buddy carve-out (see
// NewCarveoutBackend); the zero value is NVLink2 (150 GB/s full-duplex,
// §2.3) — the Fig. 11 sweep variable.
type LinkConfig = nvlink.Config

// WithOverflowBackend replaces the overflow storage tier entirely. The
// default is the paper's NVLink buddy carve-out of 3 x DeviceBytes; a
// NewCarveoutBackend of another size or link, or any Backend implementation
// (peer GPU, disaggregated appliance, ...), can stand in. With NewPool the
// single instance is shared by every shard — a fleet spilling into one
// disaggregated tier; use WithHostFallback or the default carve-out for
// per-shard overflow.
func WithOverflowBackend(b Backend) Option {
	return func(cfg *config) { cfg.overflow = func() Backend { return b } }
}

// WithHostFallback routes overflow sectors to host unified memory behind a
// demand pager instead of a buddy carve-out — the tier to use when no
// NVLink buddy memory is attached. pageBytes is the migration granularity
// (0 = 64 KB) and residentBytes bounds the pages kept hot. Each shard of a
// pool gets its own pager.
func WithHostFallback(pageBytes int, residentBytes int64) Option {
	return func(cfg *config) {
		cfg.overflow = func() Backend { return core.NewHostBackend(pageBytes, residentBytes) }
	}
}

// NewCarveoutBackend builds the paper's overflow tier explicitly: a buddy
// carve-out of the given capacity behind an interconnect link. Useful with
// WithOverflowBackend to decouple carve-out size from device size.
func NewCarveoutBackend(capacity int64, link LinkConfig) Backend {
	return core.NewCarveoutBackend(capacity, link)
}

// NewHostBackend builds the host unified-memory fallback tier explicitly.
func NewHostBackend(pageBytes int, residentBytes int64) Backend {
	return core.NewHostBackend(pageBytes, residentBytes)
}
