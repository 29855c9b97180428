package exp

import (
	"errors"
	"fmt"
	"time"

	"buddy/internal/core"
	"buddy/internal/gen"
	"buddy/internal/pool"
)

// ---------------------------------------------------------------------------
// QoS: tenant-aware serving under a saturating batch mix
// ---------------------------------------------------------------------------
//
// The serve experiment shows what sharding buys a fleet; this one shows
// what the tenant-aware scheduler buys its users. A latency-sensitive
// tenant issues small closed-loop bursts into a pool that a set of batch
// tenants keeps saturated with deep open-loop write streams. Two
// contracts are on trial:
//
//   - Isolation: the latency tenant's modeled p99 completion latency
//     (virtual device+link cycles, queueing included) stays under an SLO
//     bound even though the batch backlog never drains during the run.
//     Priority classes make this happen — in a FIFO pool the burst would
//     queue behind ~QueueDepth 64 KiB batch chunks.
//   - Weighted shares: among the batch tenants (one heavy, weight
//     QoSHeavyWeight; the rest weight 1), deficit round-robin must hand
//     the heavy tenant its configured share of served bytes. Measured
//     over a steady-state window in which every batch tenant stays
//     backlogged, so plain round-robin (share 1/n) fails the pin and
//     only a working DRR (share w/(w+n-1)) passes.
//
// Admission control rides along: the latency tenant runs with a capacity
// quota sized to its working set, and the experiment probes one
// over-quota Malloc to show the typed rejection.

const (
	// QoSBatchTenants is the default batch tenant population; the cmds'
	// -tenants flag overrides it.
	QoSBatchTenants = 2

	// QoSHeavyWeight is the heavy batch tenant's DRR weight (the rest
	// weigh 1).
	QoSHeavyWeight = 3

	// QoSDefaultSLOCycles is the default p99 SLO bound for the latency
	// tenant, in modeled device+link cycles; the cmds' -qos flag
	// overrides it. A latency burst itself costs ~52 cycles at 2x (16 KiB of
	// 90 %-zero fp16 charges 8 KB to the device and 4.6 KB to the link) and a
	// 64 KiB batch chunk ~175 — the bound is dominated by the batch runs the
	// burst may queue behind.
	QoSDefaultSLOCycles = 4000

	// qosBatchChunk is the batch streams' submit granularity and
	// qosLatBurst the latency tenant's closed-loop burst, submitted as
	// qosLatChunks pieces (adjacent, so the worker coalesces them).
	qosBatchChunk = 64 << 10
	qosLatChunks  = 4
	qosLatChunk   = 4 << 10

	// qosWarmBytes is the per-tenant served-byte warmup before the share
	// measurement window opens, skipping the startup transient in which
	// the earliest-scheduled submitters are served without contention.
	qosWarmBytes = uint64(2 << 20)

	// qosLaps is how many times each batch stream rewrites its region.
	// The whole demand is submitted up front, so each tenant's rings hold
	// qosLaps x region of backlog; sized so the warmup plus the
	// measurement window drain well under half of it and no ring runs dry
	// while shares are being measured.
	qosLaps = 4
)

// QoSResult is the qos experiment's outcome.
type QoSResult struct {
	// Shards is the pool width and BatchTenants the batch population.
	Shards       int
	BatchTenants int
	// SLOCycles is the latency tenant's p99 bound in modeled cycles and
	// SLOMet whether its observed p99 stayed under it.
	SLOCycles float64
	SLOMet    bool
	// HeavyShare is the heavy batch tenant's observed fraction of batch
	// served bytes over the steady-state measurement window;
	// EntitledShare its weight-proportional entitlement; ShareMet whether
	// observed >= 0.9 x entitled.
	HeavyShare    float64
	EntitledShare float64
	ShareMet      bool
	// QuotaRejected reports whether the over-quota probe Malloc failed
	// with the typed ErrQuotaExceeded.
	QuotaRejected bool
	// Bursts counts the latency tenant's completed closed-loop bursts.
	Bursts int
	// Tenants is the final per-tenant telemetry, in Pool.Stats order
	// (default tenant first).
	Tenants []pool.TenantStats
	// BatchBytes is the heavy tenant's served-byte demand for the
	// measurement window and WallSeconds the host-side wall time of the
	// run.
	BatchBytes  int64
	WallSeconds float64
}

// qosTenantConfigs builds the experiment's tenant set: nBatch batch
// tenants in class 0 (batch0 heavy) and one latency tenant in class 1
// with a quota covering exactly its regions.
func qosTenantConfigs(nBatch, shards int, latRegion int64) map[string]pool.TenantConfig {
	cfgs := make(map[string]pool.TenantConfig, nBatch+1)
	for i := 0; i < nBatch; i++ {
		w := 1
		if i == 0 {
			w = QoSHeavyWeight
		}
		cfgs[fmt.Sprintf("batch%d", i)] = pool.TenantConfig{Weight: w}
	}
	perRegion := ((latRegion + core.EntryBytes - 1) / core.EntryBytes) * int64(core.Target2x.DeviceBytes())
	cfgs["latency"] = pool.TenantConfig{
		Priority:      1,
		CapacityBytes: int64(shards) * perRegion,
	}
	return cfgs
}

// QoS runs the tenant-aware serving experiment. scale is the footprint
// divisor (larger = smaller batch demand floor), shards the pool width
// (<= 0 selects 4), nBatch the batch tenant count (<= 0 selects
// QoSBatchTenants) and sloCycles the latency p99 bound (<= 0 selects
// QoSDefaultSLOCycles).
func QoS(scale, shards, nBatch int, sloCycles float64) (*QoSResult, error) {
	if shards <= 0 {
		shards = 4
	}
	if nBatch <= 0 {
		nBatch = QoSBatchTenants
	}
	if sloCycles <= 0 {
		sloCycles = QoSDefaultSLOCycles
	}
	if scale <= 0 {
		scale = 1024
	}
	// Each batch tenant streams batchBytes split evenly across the
	// shards; the latency tenant keeps one small region per shard.
	batchBytes := int64(12 << 20)
	if flo := int64(2<<30) / int64(scale); flo > batchBytes {
		batchBytes = flo
	}
	wbShard := batchBytes / int64(shards) / qosBatchChunk * qosBatchChunk
	if wbShard < qosBatchChunk {
		wbShard = qosBatchChunk
	}
	batchBytes = wbShard * int64(shards)
	const latRegion = int64(64 << 10)

	// Per-shard device capacity: every tenant's per-shard reservation at
	// 2x, doubled for slack.
	devPerShard := (wbShard*int64(nBatch)/2 + latRegion) * 2
	// Rings deep enough to hold each batch stream's entire pre-submitted
	// demand: the contention the scheduler arbitrates is a standing
	// backlog, not a refill race between submitter goroutines and
	// workers (on a small host the latter turns fair shares into
	// lone-ring ping-pong).
	depth := qosLaps * int(wbShard/qosBatchChunk)
	p, err := newFleet(shards, devPerShard*int64(shards), nil, pool.Config{
		Placement:  pool.RoundRobin(),
		QueueDepth: depth,
		Tenants:    qosTenantConfigs(nBatch, shards, latRegion),
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// One region per shard per tenant: shards consecutive round-robin
	// Mallocs land on shards distinct shards.
	rng := gen.NewRNG(11, 1)
	batchData := make([]byte, wbShard)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(batchData, rng)
	latData := make([]byte, latRegion)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(latData, rng)

	doors := make([]*pool.Tenant, nBatch)
	regions := make([][]*pool.Handle, nBatch)
	for i := 0; i < nBatch; i++ {
		if doors[i], err = p.Tenant(fmt.Sprintf("batch%d", i)); err != nil {
			return nil, err
		}
		regions[i] = make([]*pool.Handle, shards)
		for s := 0; s < shards; s++ {
			if regions[i][s], err = doors[i].Malloc(fmt.Sprintf("b%d/r%d", i, s), wbShard, core.Target2x); err != nil {
				return nil, err
			}
		}
	}
	latDoor, err := p.Tenant("latency")
	if err != nil {
		return nil, err
	}
	latRegions := make([]*pool.Handle, shards)
	for s := 0; s < shards; s++ {
		if latRegions[s], err = latDoor.Malloc(fmt.Sprintf("lat/r%d", s), latRegion, core.Target2x); err != nil {
			return nil, err
		}
	}
	// Admission probe: the latency quota is now exactly full; one more
	// region must be refused with the typed error.
	over, probeErr := latDoor.Malloc("lat/over", latRegion, core.Target2x)
	quotaRejected := errors.Is(probeErr, pool.ErrQuotaExceeded)
	if probeErr == nil {
		over.Close()
		return nil, fmt.Errorf("qos: over-quota probe Malloc succeeded")
	}

	start := time.Now()
	res := &QoSResult{
		Shards:        shards,
		BatchTenants:  nBatch,
		SLOCycles:     sloCycles,
		EntitledShare: float64(QoSHeavyWeight) / float64(QoSHeavyWeight+nBatch-1),
		QuotaRejected: quotaRejected,
		BatchBytes:    batchBytes,
	}

	// Batch streams: one submitter goroutine per tenant per shard, each
	// pre-submitting qosLaps rewrites of its whole region before waiting
	// on anything. Every batch ring then holds a deep standing backlog
	// for the measured window, so the shares observed are the
	// scheduler's, not an artifact of how fast submitters refill. batchExit
	// closes when they are all done; it guards the polls below (a failed run
	// exits the batch goroutines early).
	chunksPerStream := qosLaps * int(wbShard/qosBatchChunk)
	var batchErr, latErr error
	batchExit := make(chan struct{})
	go func() {
		defer close(batchExit)
		batchErr = fanOut(nBatch*shards, func(k int) error {
			i, s := k/shards, k%shards
			h := regions[i][s]
			futs := make([]*pool.Future, 0, chunksPerStream)
			var off int64
			for c := 0; c < chunksPerStream; c++ {
				futs = append(futs, p.SubmitWrite(h, batchData[off:off+qosBatchChunk], off))
				off = (off + qosBatchChunk) % wbShard
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					return fmt.Errorf("batch%d shard %d: %w", i, s, err)
				}
			}
			return nil
		})
	}()
	// Latency tenant: closed-loop bursts of qosLatChunks adjacent chunks
	// against a rotating shard, each burst fully awaited before the next,
	// until the batch demand drains.
	stop := make(chan struct{})
	latDone := make(chan int, 1)
	go func() {
		bursts := 0
		var futs [qosLatChunks]*pool.Future
		for {
			select {
			case <-stop:
				latDone <- bursts
				return
			default:
			}
			h := latRegions[bursts%shards]
			for k := range futs {
				futs[k] = p.SubmitWrite(h, latData[:qosLatChunk], int64(k*qosLatChunk))
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					latErr = fmt.Errorf("latency burst %d: %w", bursts, err)
					latDone <- bursts
					return
				}
			}
			bursts++
		}
	}()
	// The heavy share is measured over a steady-state window. The first
	// ~millisecond of the run is a startup transient: the workers serve
	// whichever rings filled first in lone-ring mode until every
	// tenant's submitters are scheduled, which skews cumulative counts
	// toward the earliest-launched tenant. So: warm up until every batch
	// tenant has served qosWarmBytes, snapshot a per-tenant base, then
	// measure served-byte deltas until the heavy tenant serves its
	// batchBytes demand within the window. Every ring stays backlogged
	// throughout, so plain round-robin (delta share 1/n) fails the pin
	// and only a working DRR (share w/(w+n-1)) passes.
	poll := func(cond func() bool) bool {
		for !cond() {
			select {
			case <-batchExit:
				return false
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
		return true
	}
	base := make([]uint64, nBatch)
	if poll(func() bool {
		for _, d := range doors {
			if d.Stats().ServedBytes < qosWarmBytes {
				return false
			}
		}
		return true
	}) {
		for k, d := range doors {
			base[k] = d.Stats().ServedBytes
		}
		poll(func() bool { return doors[0].Stats().ServedBytes-base[0] >= uint64(batchBytes) })
	}
	var heavy, sum float64
	for k, d := range doors {
		b := float64(d.Stats().ServedBytes - base[k])
		sum += b
		if k == 0 {
			heavy = b
		}
	}
	if sum > 0 {
		res.HeavyShare = heavy / sum
	}
	<-batchExit
	close(stop)
	res.Bursts = <-latDone
	res.WallSeconds = time.Since(start).Seconds()
	if err := errors.Join(batchErr, latErr); err != nil {
		return nil, err
	}

	st := p.Stats()
	res.Tenants = st.Tenants
	lat := latDoor.Stats()
	res.SLOMet = lat.Latency.P99 <= sloCycles
	res.ShareMet = res.HeavyShare >= 0.9*res.EntitledShare
	return res, nil
}
