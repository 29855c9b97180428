package exp

import (
	"errors"
	"fmt"
	"sync/atomic"
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
	// QoSBatchTenants is the batch tenant population.
	QoSBatchTenants = 2

	// QoSHeavyWeight is the heavy batch tenant's DRR weight (the rest
	// weigh 1).
	QoSHeavyWeight = 3

	// QoSSLOCycles is the p99 SLO bound for the latency tenant, in
	// modeled device+link cycles. A latency burst itself costs ~52 cycles
	// at 2x (16 KiB of 90 %-zero fp16 charges 8 KB to the device and 4.6 KB
	// to the link) and a 64 KiB batch chunk ~175 — the bound is dominated by
	// the batch runs the burst may queue behind.
	QoSSLOCycles = 4000

	// qosBatchChunk is the batch streams' submit granularity and
	// qosLatBurst the latency tenant's closed-loop burst, submitted as
	// qosLatChunks pieces (adjacent, so the worker coalesces them).
	qosBatchChunk = 64 << 10
	qosLatChunks  = 4
	qosLatChunk   = 4 << 10

	// qosLaps is how many times each batch stream rewrites its region.
	// The whole demand is submitted up front, so each tenant's rings hold
	// qosLaps x region of backlog; sized so the measurement window drains
	// a sixteenth of it and no ring runs dry while shares are being
	// measured. The workers serve while the submitters are still queueing,
	// and on a small host a submitter can wait several scheduler time
	// slices for a core: at 4 laps, with BPC encoding a 64 KiB chunk in
	// about 50 µs, a ring could be served out before the window opened (on
	// a 2-vCPU Xeon the heavy share read 0.01–0.55 in 25 of 40 runs).
	qosLaps = 16
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

// qosTenantConfigs builds the experiment's tenant set: QoSBatchTenants
// batch tenants in class 0 (batch0 heavy) and one latency tenant in class 1
// with a quota covering exactly its regions.
func qosTenantConfigs(latRegion int64) map[string]pool.TenantConfig {
	cfgs := make(map[string]pool.TenantConfig, QoSBatchTenants+1)
	for i := 0; i < QoSBatchTenants; i++ {
		w := 1
		if i == 0 {
			w = QoSHeavyWeight
		}
		cfgs[fmt.Sprintf("batch%d", i)] = pool.TenantConfig{Weight: w}
	}
	perRegion := ((latRegion + core.EntryBytes - 1) / core.EntryBytes) * int64(core.Target2x.DeviceBytes())
	cfgs["latency"] = pool.TenantConfig{
		Priority:      1,
		CapacityBytes: int64(serveShards) * perRegion,
	}
	return cfgs
}

// QoS runs the tenant-aware serving experiment: QoSBatchTenants batch
// tenants and one latency tenant held to QoSSLOCycles, on serveShards
// shards. scale is the footprint divisor (larger = smaller batch demand
// floor).
func QoS(scale int) (*QoSResult, error) {
	// Each batch tenant streams batchBytes split evenly across the
	// shards; the latency tenant keeps one small region per shard.
	batchBytes := int64(12 << 20)
	if flo := int64(2<<30) / int64(scale); flo > batchBytes {
		batchBytes = flo
	}
	wbShard := batchBytes / int64(serveShards) / qosBatchChunk * qosBatchChunk
	if wbShard < qosBatchChunk {
		wbShard = qosBatchChunk
	}
	batchBytes = wbShard * int64(serveShards)
	const latRegion = int64(64 << 10)

	// Per-shard device capacity: every tenant's per-shard reservation at
	// 2x, doubled for slack.
	devPerShard := (wbShard*int64(QoSBatchTenants)/2 + latRegion) * 2
	// Rings deep enough to hold each batch stream's entire pre-submitted
	// demand: the contention the scheduler arbitrates is a standing
	// backlog, not a refill race between submitter goroutines and
	// workers (on a small host the latter turns fair shares into
	// lone-ring ping-pong).
	depth := qosLaps * int(wbShard/qosBatchChunk)
	p, err := newFleet(serveShards, devPerShard*int64(serveShards), nil, pool.Config{
		Placement:  pool.RoundRobin(),
		QueueDepth: depth,
		Tenants:    qosTenantConfigs(latRegion),
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// One region per shard per tenant: serveShards consecutive round-robin
	// Mallocs land on serveShards distinct shards.
	rng := gen.NewRNG(11, 1)
	batchData := make([]byte, wbShard)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(batchData, rng)
	latData := make([]byte, latRegion)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(latData, rng)

	doors := make([]*pool.Tenant, QoSBatchTenants)
	regions := make([][]*pool.Handle, QoSBatchTenants)
	for i := 0; i < QoSBatchTenants; i++ {
		if doors[i], err = p.Tenant(fmt.Sprintf("batch%d", i)); err != nil {
			return nil, err
		}
		regions[i] = make([]*pool.Handle, serveShards)
		for s := 0; s < serveShards; s++ {
			if regions[i][s], err = doors[i].Malloc(fmt.Sprintf("b%d/r%d", i, s), wbShard, core.Target2x); err != nil {
				return nil, err
			}
		}
	}
	latDoor, err := p.Tenant("latency")
	if err != nil {
		return nil, err
	}
	latRegions := make([]*pool.Handle, serveShards)
	for s := 0; s < serveShards; s++ {
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
		Shards:        serveShards,
		BatchTenants:  QoSBatchTenants,
		SLOCycles:     QoSSLOCycles,
		EntitledShare: float64(QoSHeavyWeight) / float64(QoSHeavyWeight+QoSBatchTenants-1),
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
	var queued atomic.Int32 // submitters whose whole demand is in their ring
	batchExit := make(chan struct{})
	go func() {
		defer close(batchExit)
		batchErr = fanOut(QoSBatchTenants*serveShards, func(k int) error {
			i, s := k/serveShards, k%serveShards
			h := regions[i][s]
			futs := make([]*pool.Future, 0, chunksPerStream)
			var off int64
			for c := 0; c < chunksPerStream; c++ {
				futs = append(futs, p.SubmitWrite(h, batchData[off:off+qosBatchChunk], off))
				off = (off + qosBatchChunk) % wbShard
			}
			queued.Add(1)
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
			h := latRegions[bursts%serveShards]
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
	// The heavy share is measured over a steady-state window. It opens
	// once every batch submitter has queued its whole demand: until then
	// a shard whose light submitter has not run yet serves the heavy
	// tenant alone, and a fleet-wide served-byte warmup cannot tell which
	// shard that is. From the opening every ring holds a standing
	// backlog, so the window snapshots a per-tenant base and measures
	// served-byte deltas until the heavy tenant serves batchBytes, a
	// sixteenth of its demand. Plain round-robin (delta share 1/n) fails
	// the pin and only a working DRR (share w/(w+n-1)) passes.
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
	base := make([]uint64, QoSBatchTenants)
	if poll(func() bool { return int(queued.Load()) == QoSBatchTenants*serveShards }) {
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
	res.SLOMet = lat.Latency.P99 <= QoSSLOCycles
	res.ShareMet = res.HeavyShare >= 0.9*res.EntitledShare
	return res, nil
}
