package pool

import (
	"fmt"

	"buddy/internal/core"
)

// ShardStats is one device's slice of the pool's aggregate view.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Allocs counts live allocations on the shard.
	Allocs int
	// DeviceUsed/DeviceCapacity and BuddyUsed/BuddyCapacity are the two
	// tiers' occupancy (negative capacity means unbounded).
	DeviceUsed, DeviceCapacity int64
	BuddyUsed, BuddyCapacity   int64
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
	// reset: its ledgers — device bytes, and the overflow tier's bytes per
	// direction — priced by the function that advances its clock
	// (core.Device.Cycles). Shards serve in parallel, so a fleet's time is
	// its slowest shard's.
	ServiceCycles float64
	// Draining and Failed are the shard's lifecycle flags (see Drain and
	// the failure injector); both false on a healthy shard.
	Draining bool
	Failed   bool
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
// telemetry into one fleet view.
func (p *Pool) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(p.devices))}
	var weightedHits, weight float64
	for i, d := range p.devices {
		primary, overflow := d.Tiers()
		s := ShardStats{
			Shard:                i,
			Allocs:               d.AllocationCount(),
			DeviceUsed:           d.DeviceUsed(),
			DeviceCapacity:       primary.Capacity(),
			BuddyUsed:            d.BuddyUsed(),
			BuddyCapacity:        overflow.Capacity(),
			Traffic:              d.Traffic(),
			MetadataCacheHitRate: d.MetadataCacheHitRate(),
		}
		s.LinkReadBusyCycles, s.LinkWriteBusyCycles = d.LinkOccupancy()
		link := overflow.Traffic()
		s.ServiceCycles = d.Cycles(core.Cost{
			DeviceBytes: s.Traffic.DeviceReadBytes + s.Traffic.DeviceWriteBytes,
			LinkRead:    link.ReadBytes,
			LinkWrite:   link.WrittenBytes,
		})
		switch p.state[i].Load() {
		case shardDraining:
			s.Draining = true
		case shardFailed:
			s.Failed = true
		}
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
	inline := p.async.inline.Load()
	st.Async = AsyncStats{
		Submitted:      p.async.queued.Load() + inline,
		Inline:         inline,
		CoalescedTasks: p.async.coalescedTasks.Load(),
		CoalescedRuns:  p.async.coalescedRuns.Load(),
	}
	st.Tenants = make([]TenantStats, len(p.tenants))
	var fleet [latBuckets]uint64
	for i, t := range p.tenants {
		st.Tenants[i] = t.stats()
		t.lat.snapshotInto(&fleet)
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

// byName resolves allocation names to live handles. Names are unique per
// shard by convention but the pool does not enforce global uniqueness; a
// duplicate name resolves to the handle on the highest shard (the newest
// one there).
func (p *Pool) byName() map[string]*Handle {
	m := make(map[string]*Handle)
	for _, h := range p.Handles() { // ascending shard, then age: the last one wins
		m[h.name] = h
	}
	return m
}

// Targets returns the fleet-wide name -> target map of live allocations —
// the "current" input for the next PlanReprofile — with duplicate names
// resolved as ApplyReprofile resolves them (byName).
func (p *Pool) Targets() map[string]core.TargetRatio {
	m := make(map[string]core.TargetRatio)
	for name, h := range p.byName() {
		m[name] = h.Target()
	}
	return m
}

// ApplyReprofile executes a checkpoint-time plan across the fleet: each
// decision is applied to the live handle of that name (byName), through the
// device its allocation is on, and the owning tenant's quota follows the new
// target on the spot. Decisions naming no live allocation, or one whose
// target is no longer the decision's Old, are skipped, like stale decisions
// on a single device. On error the already-applied decisions remain in
// force.
func (p *Pool) ApplyReprofile(plan *core.ReprofilePlan) (core.MigrationStats, error) {
	var st core.MigrationStats
	if plan == nil || len(plan.Decisions) == 0 {
		return st, nil
	}
	handles := p.byName()
	for _, dec := range plan.Decisions {
		h := handles[dec.Name]
		if h == nil {
			st.Skipped++
			continue
		}
		moved, applied, err := h.retarget(dec)
		if err != nil {
			return st, fmt.Errorf("pool: reprofile %s %s->%s on shard %d: %w", dec.Name, dec.Old, dec.New, h.Shard(), err)
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

// retarget applies one reprofile decision to the handle. Under ctl neither a
// MigrateHandle nor a Close can interleave: the allocation stays on the
// device the Retarget goes through, the target checked is the one retargeted,
// and the quota — accounted in exactly the stored bytes a target reserves —
// is adjusted by the delta the moment the new target is in force, so tenant
// StoredBytes never disagrees with the handles it sums.
func (h *Handle) retarget(dec core.ReprofileDecision) (moved int64, applied bool, err error) {
	h.ctl.Lock()
	defer h.ctl.Unlock()
	if h.a.Freed() || h.a.Target() != dec.Old {
		return 0, false, nil
	}
	if moved, err = h.a.Device().Retarget(h.a, dec.New); err != nil {
		return 0, false, err
	}
	q := quotaFor(h.size, dec.New)
	h.tn.stored.Add(q - h.quota.Swap(q))
	return moved, true, nil
}
