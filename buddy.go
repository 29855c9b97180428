// Package buddy is a from-scratch reproduction of "Buddy Compression:
// Enabling Larger Memory for Deep Learning and HPC Workloads on GPUs"
// (Choukse et al., ISCA 2020), grown into a layered, concurrency-safe
// compressed-memory driver. It provides:
//
//   - the Buddy Compression mechanism itself: compressed GPU allocations
//     with fixed per-entry sector budgets split between a device slab and
//     an overflow tier (New, Device.Malloc),
//   - a byte-addressed bulk I/O surface — Allocation satisfies io.ReaderAt
//     and io.WriterAt, and Memcpy mirrors cudaMemcpy — so callers never
//     deal in 128 B entries; aligned spans compress and decompress in
//     parallel across a bounded worker pool (WriteEntries, ReadEntries),
//   - pluggable storage tiers behind the Backend interface: the paper's
//     NVLink buddy carve-out, plus a host unified-memory fallback
//     (WithHostFallback) and room for peer-GPU or disaggregated tiers,
//   - a sharded multi-device pool for fleet-scale serving: placement with
//     spill-over across N devices, per-shard bounded async submission
//     queues and aggregated telemetry (NewPool, Pool.SubmitWrite,
//     Pool.Stats),
//   - the profiling pass that chooses per-allocation target compression
//     ratios under a Buddy Threshold (Profile),
//   - the hardware compression algorithms the paper evaluates (NewBPC and
//     the baselines via Codecs),
//   - the synthetic workload suite standing in for the paper's sixteen
//     benchmarks (Workloads), and
//   - a self-registering experiment registry that regenerates every table
//     and figure of the paper's evaluation (ExperimentRegistry,
//     RunExperiment and cmd/buddysim).
//
// See DESIGN.md for the system inventory and layer diagram.
package buddy

import (
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/memory"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

// EntryBytes is the compression granularity: one 128 B memory-entry.
// Byte-addressed callers (ReadAt, WriteAt, Memcpy) never need it; it is
// exported for traffic accounting and entry-granular tools.
const EntryBytes = compress.EntryBytes

// SectorBytes is the GPU memory access granularity (32 B).
const SectorBytes = compress.SectorBytes

// Device is a Buddy Compression GPU memory device. It is safe for
// concurrent use by multiple goroutines. One Malloc takes at most about
// 1.58 GiB (13.2 M entries); split anything larger.
type Device = core.Device

// Allocation is a compressed allocation on a Device. It satisfies
// io.ReaderAt and io.WriterAt: callers address plain byte offsets and the
// driver handles compression, sector placement and overflow underneath.
type Allocation = core.Allocation

// Backend is one pluggable storage tier (device slab, NVLink buddy
// carve-out, host unified-memory fallback, ...): a capacity meter plus
// Access, which accounts a span of accesses in the order they happened.
type Backend = core.Backend

// TierOp is one access of a Backend.Access span: Bytes bytes of a device's
// global entry index Entry, read or (Store) written.
type TierOp = core.TierOp

// BackendTraffic is a snapshot of one tier's access counters.
type BackendTraffic = core.BackendTraffic

// Traffic holds a snapshot of a Device's byte-level traffic counters.
type Traffic = core.Traffic

// Cost is what one operation charged the Traffic ledgers, as
// Allocation.Access returns it; Device.Cycles prices it in modeled time.
type Cost = core.Cost

// TargetRatio is an allocation's annotated target compression ratio.
type TargetRatio = core.TargetRatio

// Target ratios (§3.2): 4, 3, 2 or 1 device sectors per 128 B entry, plus
// the 16x mostly-zero mode keeping 8 B (§3.4).
const (
	Target1x    = core.Target1x
	Target4by3x = core.Target4by3x
	Target2x    = core.Target2x
	Target4x    = core.Target4x
	Target16x   = core.Target16x
)

// Memcpy copies n bytes from the start of src to the start of dst through
// both compression pipelines — the transparent-memory equivalent of
// cudaMemcpy(dst, src, n). The allocations may live on different devices.
func Memcpy(dst, src *Allocation, n int64) (int64, error) {
	return core.Memcpy(dst, src, n)
}

// Pool is a shard router over N independent Devices behind one front door:
// placement, spill-over, async batched serving and aggregate stats for a
// fleet of buddy-compressed GPUs. Build one with NewPool. It is safe for
// concurrent use by multiple goroutines.
type Pool = pool.Pool

// Handle is an allocation placed on one of a Pool's shards; it routes
// ReadAt/WriteAt/Close to the owning device and satisfies io.ReaderAt,
// io.WriterAt and io.Closer.
type Handle = pool.Handle

// Future is an operation submitted with Pool.SubmitRead/SubmitWrite and its
// pending result. Wait is the only way to observe it and must be called
// exactly once: it recycles the future, so a second Wait panics and a
// retained pointer may already belong to a later submission.
type Future = pool.Future

// PoolStats is the pool-wide aggregate of per-shard telemetry: summed
// Traffic, fleet capacity and the access-weighted metadata-cache hit rate.
type PoolStats = pool.Stats

// ShardStats is one shard's slice of PoolStats, including the overflow
// link's accumulated busy cycles per direction.
type ShardStats = pool.ShardStats

// ShardLoad is the per-shard occupancy view a Placement policy picks from.
type ShardLoad = pool.ShardLoad

// Placement chooses the shard a Pool first offers each allocation to; the
// pool spills through the remaining shards in index order when the choice
// is out of memory.
type Placement = pool.Placement

// PlaceLeastUsed is the default placement: the shard with the fewest
// device bytes in use, ties broken toward the lowest shard index.
func PlaceLeastUsed() Placement { return pool.LeastUsed() }

// PlaceRoundRobin rotates allocations across shards in submission order.
func PlaceRoundRobin() Placement { return pool.RoundRobin() }

// PlaceShard pins placement to one explicit shard (spill-over still
// applies when it is full).
func PlaceShard(shard int) Placement { return pool.Explicit(shard) }

// ErrPoolClosed is returned (wrapped) by operations on a closed Pool.
var ErrPoolClosed = pool.ErrClosed

// Tenant is a named tenant's front door on a Pool: Malloc places
// allocations charged against the tenant's quota and scheduled in its
// priority class and weighted share; Stats reads its serving telemetry.
// Configure tenants with WithTenants and obtain handles with Pool.Tenant.
type Tenant = pool.Tenant

// TenantConfig declares one tenant's serving contract: capacity quota
// (stored compressed bytes), deficit-round-robin weight within its
// priority class, and the class itself.
type TenantConfig = pool.TenantConfig

// TenantStats is one tenant's slice of PoolStats: quota occupancy,
// admission rejections, queue depth and the modeled latency distribution.
type TenantStats = pool.TenantStats

// LatencyDist summarizes a modeled completion-latency distribution
// (p50/p95/p99 in device+link cycles) from the serving layer's
// fixed-bucket log histograms.
type LatencyDist = pool.LatencyDist

// DefaultTenant is the name of the tenant owning untenanted traffic
// (plain Pool.Malloc); it always exists.
const DefaultTenant = pool.DefaultTenant

// ErrQuotaExceeded is returned (wrapped) by Malloc when an allocation
// would push its tenant's stored compressed bytes over the configured
// CapacityBytes.
var ErrQuotaExceeded = pool.ErrQuotaExceeded

// MemcpyHandles copies n bytes from the start of src to the start of dst
// through both compression pipelines; the handles may live on different
// shards — the pool equivalent of a peer-to-peer cudaMemcpy.
func MemcpyHandles(dst, src *Handle, n int64) (int64, error) {
	return pool.Memcpy(dst, src, n)
}

// FailureInjector kills shards of the Pool it is attached to (see
// WithFailureInjector) — the fault hook behind failure-recovery testing
// and the heal experiment.
type FailureInjector = pool.FailureInjector

// NewFailureInjector returns an unattached injector; pass it to NewPool
// via WithFailureInjector, then Kill shards mid-serve.
func NewFailureInjector() *FailureInjector { return pool.NewFailureInjector() }

// RecoveryStats reports one shard recovery: entries rebuilt, compressed
// bytes streamed back over the buddy link, and wall-clock elapsed.
type RecoveryStats = pool.RecoveryStats

// ErrShardDraining is returned (wrapped) when an operation targets a Pool
// shard that is draining.
var ErrShardDraining = pool.ErrShardDraining

// ErrShardFailed is returned (wrapped) when an operation targets a Pool
// shard whose device tier has been killed and not yet recovered.
var ErrShardFailed = pool.ErrShardFailed

// ErrDeviceFailed is returned (wrapped) by data-path operations on a
// device whose tier has been killed by a FailureInjector and not yet
// rebuilt.
var ErrDeviceFailed = core.ErrDeviceFailed

// ErrFreed is returned (wrapped) by every I/O operation on an allocation
// released with Device.Free or Allocation.Close.
var ErrFreed = core.ErrFreed

// ErrOutOfMemory is returned (wrapped) when an allocation or a live
// migration does not fit a storage tier's capacity.
var ErrOutOfMemory = core.ErrOutOfMemory

// ReprofilePlan is a checkpoint-time target-update plan (§3.4 extension):
// which allocations should change ratio, what that buys, and what the
// migration costs. Compute one with PlanReprofile and execute it on a live
// device with Device.ApplyReprofile.
type ReprofilePlan = core.ReprofilePlan

// ReprofileDecision is one allocation's proposed target change.
type ReprofileDecision = core.ReprofileDecision

// MigrationStats reports what Device.ApplyReprofile actually did.
type MigrationStats = core.MigrationStats

// PlanReprofile computes a checkpoint-time target update from fresh
// profiling snapshots: current maps allocation names to the targets in
// force (missing names default to 1x). Gate on Device.ReprofileWorthwhile
// (or ReprofilePlan.Worthwhile) before applying.
func PlanReprofile(current map[string]TargetRatio, snaps []*Snapshot, c Codec, opt ProfileOptions) *ReprofilePlan {
	return core.PlanReprofile(current, snaps, c, opt)
}

// Codec is the single-pass, allocation-free compression API: one
// AppendCompressed encode yields both the framed stream and its exact bit
// length, and DecompressInto decodes into caller memory.
type Codec = compress.Codec

// NewBPC returns Bit-Plane Compression, the paper's chosen algorithm.
func NewBPC() Codec { return compress.NewBPC() }

// Codecs returns every implemented algorithm: BPC plus the BDI, FPC, FVC,
// C-PACK and zero-compression baselines of the paper's comparison (§2.4).
func Codecs() []Codec { return compress.Registry() }

// CodecByName returns the implemented algorithm with the given name
// ("bpc", "bdi", "fpc", "fvc", "cpack", "zero") — the lookup behind
// name-based codec selection in the command-line tools.
func CodecByName(name string) (Codec, error) { return compress.ByName(name) }

// ProfileOptions configure the profiling pass.
type ProfileOptions = core.ProfileOptions

// ProfileResult is the outcome of the profiling pass.
type ProfileResult = core.ProfileResult

// FinalDesign returns the paper's final profiling configuration:
// per-allocation targets, 30% Buddy Threshold, zero-page optimization, 4x
// carve-out cap (§3.5).
func FinalDesign() ProfileOptions { return core.FinalDesign() }

// Profile runs the target-ratio selection pass over profiling snapshots.
// Each snapshot is compressed exactly once, in parallel, into a shared
// sector-class index (see internal/analysis) — like the data path, c must
// be safe for concurrent use (all built-in algorithms are stateless and
// qualify).
func Profile(snaps []*Snapshot, c Codec, opt ProfileOptions) *ProfileResult {
	return core.Profile(snaps, c, opt)
}

// Snapshot is one memory dump: the live allocations at a point in a
// workload's execution.
type Snapshot = memory.Snapshot

// MemAllocation is one region of a Snapshot.
type MemAllocation = memory.Allocation

// Benchmark describes one synthetic workload of Tab. 1.
type Benchmark = workloads.Benchmark

// Workloads returns the sixteen benchmarks of the paper's Tab. 1.
func Workloads() []Benchmark { return workloads.Table1() }

// WorkloadByName returns the named Tab. 1 benchmark.
func WorkloadByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// GenerateRun synthesizes a benchmark's ten profiling snapshots at 1/scale
// of its true footprint (statistics are per-entry and scale-free). Treat the
// snapshots as read-only: a region that does not change over the run is
// synthesized once and the ten snapshots share its allocation.
func GenerateRun(b Benchmark, scale int) []*Snapshot {
	return workloads.GenerateRun(b, scale)
}

// LoadSnapshot allocates a snapshot's regions on a device with the given
// targets (falling back to 1x) and writes every region through the
// compression pipeline in bulk. It returns the created allocations in
// order.
func LoadSnapshot(d *Device, s *Snapshot, targets map[string]TargetRatio) ([]*Allocation, error) {
	var out []*Allocation
	for _, a := range s.Allocations {
		t, ok := targets[a.Name]
		if !ok {
			t = Target1x
		}
		alloc, err := d.Malloc(a.Name, int64(len(a.Data)), t)
		if err != nil {
			return out, err
		}
		if _, err := alloc.WriteAt(a.Data, 0); err != nil {
			return out, err
		}
		out = append(out, alloc)
	}
	return out, nil
}
