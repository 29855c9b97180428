package pool

import (
	"fmt"

	"buddy/internal/core"
)

// ShardStats is one device's slice of the pool's aggregate view: its
// placement view (occupancy and lifecycle flags) plus its traffic.
type ShardStats struct {
	ShardLoad
	// BuddyCapacity is the overflow tier's capacity (negative means
	// unbounded).
	BuddyCapacity int64
	// Traffic is the device's byte-level traffic snapshot.
	Traffic core.Traffic
	// MetadataCacheHitRate is the device's metadata cache hit rate.
	MetadataCacheHitRate float64
	// LinkReadBusyCycles and LinkWriteBusyCycles are the overflow
	// interconnect's accumulated busy cycles per direction (zero when the
	// overflow tier is not a buddy carve-out). Busy cycles count time
	// actually spent transferring — idle gaps between requests excluded —
	// so they divide by a horizon to give true utilization.
	LinkReadBusyCycles, LinkWriteBusyCycles float64
	// ServiceCycles is the shard's modeled serving time since the last
	// reset: its own ledgers — device bytes, and the buddy bytes per
	// direction of Traffic — priced by the function that advances its clock
	// (core.Device.Cycles). An overflow tier shared between shards meters
	// all of them; this is one shard's share. Shards serve in parallel, so
	// a fleet's time is its slowest shard's.
	ServiceCycles float64
}

// AsyncStats is the async serving path's telemetry: how much of the
// submitted traffic the shard workers managed to batch.
type AsyncStats struct {
	// Submitted counts accepted operations, whichever path served them.
	Submitted uint64
	// Inline counts the submitted operations that were served in place: small
	// operations that found their shard with nothing pending and ran to
	// completion on the submitter's goroutine, never touching a queue. The
	// rest, Submitted - Inline, went through the scheduler.
	Inline uint64
	// CoalescedTasks counts submitted tasks that executed inside a
	// coalesced run (a batch of 2+ adjacent tasks dispatched as one entry
	// span); CoalescedRuns counts the runs themselves.
	CoalescedTasks uint64
	CoalescedRuns  uint64
}

// CoalescedFrac returns the fraction of submitted tasks that executed
// inside a coalesced run.
func (a AsyncStats) CoalescedFrac() float64 {
	if a.Submitted == 0 {
		return 0
	}
	return float64(a.CoalescedTasks) / float64(a.Submitted)
}

// Stats is the pool-wide aggregate of the per-shard telemetry.
type Stats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardStats
	// Traffic is the element-wise sum of every shard's traffic counters.
	Traffic core.Traffic
	// Allocs, DeviceUsed, DeviceCapacity and BuddyUsed are fleet totals.
	Allocs         int
	DeviceUsed     int64
	DeviceCapacity int64
	BuddyUsed      int64
	// MetadataCacheHitRate is the access-weighted mean of the shards' hit
	// rates (weighted by each shard's entry accesses, so idle shards do
	// not dilute the fleet number).
	MetadataCacheHitRate float64
	// Async is the submission-queue coalescing telemetry.
	Async AsyncStats
	// Tenants holds per-tenant serving telemetry — quota occupancy,
	// admission rejections, queue depth and the modeled latency
	// distribution — default tenant first, the rest in sorted name order.
	Tenants []TenantStats
	// Latency is the fleet-wide modeled completion-latency distribution
	// (every tenant's histogram summed), in device+link cycles.
	Latency LatencyDist
}

func addTraffic(a, b core.Traffic) core.Traffic {
	return core.Traffic{
		DeviceReadBytes:   a.DeviceReadBytes + b.DeviceReadBytes,
		DeviceWriteBytes:  a.DeviceWriteBytes + b.DeviceWriteBytes,
		BuddyReadBytes:    a.BuddyReadBytes + b.BuddyReadBytes,
		BuddyWriteBytes:   a.BuddyWriteBytes + b.BuddyWriteBytes,
		MetadataFillBytes: a.MetadataFillBytes + b.MetadataFillBytes,
		MigrationBytes:    a.MigrationBytes + b.MigrationBytes,
		Reads:             a.Reads + b.Reads,
		Writes:            a.Writes + b.Writes,
		BuddyAccesses:     a.BuddyAccesses + b.BuddyAccesses,
	}
}

// Stats aggregates every shard's traffic, capacity and metadata-cache
// telemetry, and every tenant's, into one fleet view.
func (p *Pool) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(p.devices))}
	var weightedHits, weight float64
	for i, d := range p.devices {
		s := ShardStats{
			ShardLoad:            p.load(i),
			BuddyCapacity:        d.Overflow().Capacity(),
			Traffic:              d.Traffic(),
			MetadataCacheHitRate: d.MetadataCacheHitRate(),
		}
		s.LinkReadBusyCycles, s.LinkWriteBusyCycles = d.LinkOccupancy()
		s.ServiceCycles = d.Cycles(core.Cost{
			DeviceBytes: s.Traffic.DeviceReadBytes + s.Traffic.DeviceWriteBytes,
			LinkRead:    s.Traffic.BuddyReadBytes,
			LinkWrite:   s.Traffic.BuddyWriteBytes,
		})
		st.Shards[i] = s
		st.Traffic = addTraffic(st.Traffic, s.Traffic)
		st.Allocs += s.Allocs
		st.DeviceUsed += s.DeviceUsed
		st.DeviceCapacity += s.DeviceCapacity
		st.BuddyUsed += s.BuddyUsed
		accesses := float64(s.Traffic.Reads + s.Traffic.Writes)
		weightedHits += s.MetadataCacheHitRate * accesses
		weight += accesses
	}
	if weight > 0 {
		st.MetadataCacheHitRate = weightedHits / weight
	}
	// Inline is read before the tenants: submit counts an operation on its
	// tenant first, so the tenants' sum is never behind it.
	st.Async = AsyncStats{
		CoalescedTasks: p.async.coalescedTasks.Load(),
		CoalescedRuns:  p.async.coalescedRuns.Load(),
	}
	for _, s := range p.scheds {
		st.Async.Inline += s.inline.Load()
	}
	st.Tenants = make([]TenantStats, len(p.tenants))
	var fleet [latBuckets]uint64
	for i, t := range p.tenants {
		st.Tenants[i] = t.stats(&fleet)
		st.Async.Submitted += st.Tenants[i].Submitted
	}
	st.Latency = distFrom(&fleet)
	return st
}

// ResetTraffic clears every shard's traffic counters and metadata caches.
func (p *Pool) ResetTraffic() {
	for _, d := range p.devices {
		d.ResetTraffic()
	}
}

// CompressionRatio returns the fleet-wide capacity compression: original
// bytes of live allocations over their device reservations, across all
// shards.
func (p *Pool) CompressionRatio() float64 {
	var orig, dev float64
	for _, h := range p.Handles() {
		orig += float64(h.a.EntryCount) * core.EntryBytes
		dev += float64(h.a.EntryCount) * float64(h.Target().DeviceBytes())
	}
	if dev == 0 {
		return 1
	}
	return orig / dev
}

// ApplyReprofile executes a checkpoint-time plan across the fleet — one
// made by core.PlanReprofile over the handles' allocations (Handle.Alloc):
// each decision is applied to the live handle that holds its allocation by
// that allocation's device's Reprofile step, and the owning tenant's quota
// follows the new target on the spot. Decisions that step does not apply,
// or whose allocation no live handle holds, are skipped, exactly as on a
// single device. On error the already-applied decisions remain in force.
// After Close it fails with ErrClosed.
func (p *Pool) ApplyReprofile(plan *core.ReprofilePlan) (core.MigrationStats, error) {
	var st core.MigrationStats
	if p.closing() {
		return st, fmt.Errorf("pool: ApplyReprofile: %w", ErrClosed)
	}
	if plan == nil || len(plan.Decisions) == 0 {
		return st, nil
	}
	live := p.Handles()
	handles := make(map[*core.Allocation]*Handle, len(live))
	for _, h := range live {
		handles[h.a] = h
	}
	for _, dec := range plan.Decisions {
		h := handles[dec.Alloc]
		if h == nil {
			st.Skipped++
			continue
		}
		moved, applied, err := h.retarget(dec)
		if err != nil {
			return st, fmt.Errorf("pool: reprofile %s %s->%s on shard %d: %w", h.a.Name, dec.Old, dec.New, h.Shard(), err)
		}
		if !applied {
			st.Skipped++
			continue
		}
		st.Applied++
		st.MigratedBytes += moved
	}
	return st, nil
}

// retarget applies one reprofile decision to the handle through core's
// Reprofile step, which makes the freed and stale-target checks. Under ctl
// neither a MigrateHandle nor a Close can interleave, so the allocation
// stays on the device the step goes through, and the quota — accounted in
// exactly the stored bytes a target reserves — is adjusted by the delta the
// moment the new target is in force, so tenant StoredBytes never disagrees
// with the handles it sums. Close waits for the relayout.
func (h *Handle) retarget(dec core.ReprofileDecision) (moved int64, applied bool, err error) {
	h.ctl.Lock()
	defer h.ctl.Unlock()
	s := h.pool.scheds[h.Shard()]
	w := s.enter()
	defer s.exit()
	if w&closedBit != 0 {
		return 0, false, ErrClosed
	}
	if moved, applied, err = h.a.Device().Reprofile(dec); !applied {
		return 0, false, err
	}
	q := quotaFor(h.a.Size(), dec.New)
	h.tn.stored.Add(q - h.quota.Swap(q))
	return moved, true, nil
}
