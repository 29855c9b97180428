package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Allocation lifecycle and live target-ratio migration (the §3.4 extension:
// "the target ratios can be periodically updated for long running
// applications"). Free retires an allocation — reservations return to their
// tiers, the entry-table region becomes a reusable hole, and every later
// I/O fails with ErrFreed. Retarget re-lays-out a live allocation under a
// new target ratio while reader/writer traffic continues, and
// ApplyReprofile drives Retarget from a checkpoint-time ReprofilePlan.
//
// Concurrency scheme: control-plane operations serialize on dev.migMu
// (lock order migMu -> mu -> entry shards). A migration installs a
// per-allocation epoch — the mig pointer with its moved[] bitmap — under
// dev.mu held exclusively, then streams entries to the new layout on the
// same GOMAXPROCS-bounded span pool as the batch data path, as passes of the
// entry-table walker (relocate.go). Each entry moves under its shard lock,
// the same lock every reader and writer takes, and the shard key comes from
// the immutable shardBase rather than the layout, so an in-flight WriteAt
// simply lands in whichever layout owns the entry when it commits. The
// final layout swap happens under dev.mu held exclusively, after which the
// old region's reservations are released and its slots become a hole.

// ErrFreed is returned (wrapped) by every I/O operation on an allocation
// that has been released with Free or Close.
var ErrFreed = errors.New("core: allocation freed")

// region is a contiguous reservation in the three allocation spaces: entry
// slots in the global entry table, bytes in the device slab, and bytes in
// the buddy carve-out. Regions always start at an even slot index and span
// an even slot count so no metadata byte straddles two regions.
type region struct {
	firstEntry int // even
	slots      int // even; >= the allocation's EntryCount
	deviceOff  int64
	devBytes   int64
	buddyOff   int64
	buddyBytes int64
}

// regionSlots rounds an entry count up to the even slot count its region
// occupies (see region).
func regionSlots(entries int) int { return entries + entries%2 }

// migration is the live-migration epoch of one allocation: the destination
// layout plus the per-entry handoff bitmap. moved[i] is guarded by entry
// i's shard lock; the struct itself is installed and cleared under dev.mu
// held exclusively.
type migration struct {
	target TargetRatio
	reg    region
	moved  []bool
	bytes  atomic.Int64 // stored bytes re-packed so far
}

// migrateSpan is the spanRunner that streams one allocation's entries to
// its migration's new layout across the device's span-worker pool.
type migrateSpan struct {
	a   *Allocation
	mig *migration
}

//buddy:hotpath
func (s *migrateSpan) runSpan(lo, hi int) error {
	// Each moved entry reads its old placement and writes its new one: at
	// most two overflow accesses per entry of a sub-batch.
	var ops [2 * spanBatchEntries]tierOp
	p := relocPass{kind: relocMigrate, mig: s.mig, tally: relocTally{ops: ops[:]}}
	_, err := s.a.relocate(&p, nil, nil, lo, hi)
	s.mig.bytes.Add(p.bytes)
	return err
}

// grabRegion hands out a region of the given shape, reusing the first
// retired hole that fits in all three spaces and growing the entry table
// only when none does. Caller must hold d.mu exclusively.
func (d *Device) grabRegion(slots int, devBytes, buddyBytes int64) region {
	for i, h := range d.holes {
		if h.slots >= slots && h.devBytes >= devBytes && h.buddyBytes >= buddyBytes {
			r := region{h.firstEntry, slots, h.deviceOff, devBytes, h.buddyOff, buddyBytes}
			rem := region{
				firstEntry: h.firstEntry + slots,
				slots:      h.slots - slots,
				deviceOff:  h.deviceOff + devBytes,
				devBytes:   h.devBytes - devBytes,
				buddyOff:   h.buddyOff + buddyBytes,
				buddyBytes: h.buddyBytes - buddyBytes,
			}
			if rem.slots >= 2 {
				d.holes[i] = rem
			} else {
				// A slot-less remainder can never host an allocation; drop
				// it (address space is modeled, capacity is metered by the
				// backends, so nothing real leaks).
				d.holes = slices.Delete(d.holes, i, i+1)
			}
			return r
		}
	}
	r := region{d.totalEntry, slots, d.deviceOff, devBytes, d.buddyOff, buddyBytes}
	d.totalEntry += slots
	d.deviceOff += devBytes
	d.buddyOff += buddyBytes
	d.streams = append(d.streams, make([][]byte, slots)...)
	d.meta = growMetadata(d.meta, d.totalEntry)
	return r
}

// freeRegion returns a region to the hole list, coalescing with an adjacent
// hole when the two are contiguous in all three spaces. Caller must hold
// d.mu exclusively.
func (d *Device) freeRegion(r region) {
	for i := range d.holes {
		h := &d.holes[i]
		if h.firstEntry+h.slots == r.firstEntry &&
			h.deviceOff+h.devBytes == r.deviceOff &&
			h.buddyOff+h.buddyBytes == r.buddyOff {
			h.slots += r.slots
			h.devBytes += r.devBytes
			h.buddyBytes += r.buddyBytes
			return
		}
		if r.firstEntry+r.slots == h.firstEntry &&
			r.deviceOff+r.devBytes == h.deviceOff &&
			r.buddyOff+r.buddyBytes == h.buddyOff {
			h.firstEntry = r.firstEntry
			h.deviceOff = r.deviceOff
			h.buddyOff = r.buddyOff
			h.slots += r.slots
			h.devBytes += r.devBytes
			h.buddyBytes += r.buddyBytes
			return
		}
	}
	d.holes = append(d.holes, r)
}

// Free releases an allocation: its device and buddy reservations return to
// their tiers, its metadata is retired, its entry-table region becomes
// reusable by later Mallocs, and every subsequent I/O on the allocation
// fails with an error wrapping ErrFreed. Freeing twice is an error. An
// in-flight ReadAt/WriteAt may complete its current entries; entries it
// attempts after Free fail like any other I/O.
func (d *Device) Free(a *Allocation) error {
	if a == nil || a.dev != d {
		return fmt.Errorf("core: Free of an allocation not owned by this device")
	}
	// Serializing against Retarget/ApplyReprofile guarantees no migration
	// is in flight on a while it is dismantled.
	d.migMu.Lock()
	defer d.migMu.Unlock()

	d.mu.Lock()
	if a.freed {
		d.mu.Unlock()
		return a.errFreed()
	}
	a.freed = true
	for g := a.reg.firstEntry; g < a.reg.firstEntry+a.EntryCount; g++ {
		d.streams[g] = nil
		d.meta.Set(g, 0)
	}
	if i := slices.Index(d.allocs, a); i >= 0 {
		d.allocs = slices.Delete(d.allocs, i, i+1)
	}
	r := a.reg
	d.freeRegion(r)
	d.mu.Unlock()

	d.primary.Release(r.devBytes)
	d.overflow.Release(r.buddyBytes)
	return nil
}

// Close releases the allocation via Device.Free; Allocation satisfies
// io.Closer so regions can sit behind defer and resource-managing helpers.
func (a *Allocation) Close() error { return a.dev.Free(a) }

// storedBytes is the stored footprint of an entry compressed to the given
// sector count: the 8 B zero-page word for class 0, whole sectors
// otherwise. This is the unit both ReprofileDecision.MigrationBytes and
// Traffic.MigrationBytes count, so planned and actual cost compare 1:1.
func storedBytes(sectors int) int {
	if sectors == 0 {
		return 8
	}
	return sectors * 32
}

// errStaleDecision marks a reprofile decision whose allocation changed
// target between planning and application; ApplyReprofile maps it to a
// skip.
var errStaleDecision = errors.New("core: stale reprofile decision")

// Retarget migrates a live allocation to a new target compression ratio
// (§3.4: "requires re-allocating the memory for that page and moving data").
// The new layout's reservations are taken up front (failing with
// ErrOutOfMemory leaves the allocation untouched); entries then stream to
// their new placement on the same GOMAXPROCS-bounded span pool as the batch
// data path, concurrently with reader/writer traffic; finally the layout is
// swapped and the old region's reservations return to their tiers. It
// returns the stored bytes re-packed (the migration cost a ReprofilePlan
// estimates).
func (d *Device) Retarget(a *Allocation, target TargetRatio) (int64, error) {
	return d.retarget(a, target, nil)
}

// retarget is Retarget with an optional expected current target: when
// expectOld is non-nil and the allocation's target no longer matches (a
// concurrent Free/Retarget won the race since the caller looked), it fails
// with errStaleDecision instead of migrating. The check runs under migMu,
// where no control-plane operation can interleave.
func (d *Device) retarget(a *Allocation, target TargetRatio, expectOld *TargetRatio) (int64, error) {
	if a == nil || a.dev != d {
		return 0, fmt.Errorf("core: Retarget of an allocation not owned by this device")
	}
	d.migMu.Lock()
	defer d.migMu.Unlock()

	d.mu.RLock()
	freed, old := a.freed, a.target
	d.mu.RUnlock()
	if freed {
		return 0, a.errFreed()
	}
	if expectOld != nil && old != *expectOld {
		return 0, fmt.Errorf("core: %s is at %s, plan expected %s: %w",
			a.Name, old, *expectOld, errStaleDecision)
	}
	if old == target {
		return 0, nil
	}

	mig, err := d.beginMigration(a, target)
	if err != nil {
		return 0, err
	}
	// Stream every entry to the new layout. The span workers cannot fail
	// here (the pass's only error is ErrFreed, and Free waits on migMu),
	// and entries written concurrently after their move land in the new
	// layout directly.
	_ = d.span.run(a.EntryCount, &migrateSpan{a: a, mig: mig})
	return d.commitMigration(a, mig), nil
}

// beginMigration reserves a's layout under the new target and installs the
// migration epoch; from here every entry operation resolves its home
// through it. Both layouts are reserved while the migration runs; the old
// bytes return only after the swap, so a failure can always roll forward.
// Caller holds migMu.
func (d *Device) beginMigration(a *Allocation, target TargetRatio) (*migration, error) {
	entries := a.EntryCount
	devBytes := int64(entries) * int64(target.DeviceBytes())
	buddyBytes := int64(entries) * int64(target.BuddySlotBytes())
	if err := d.primary.Reserve(devBytes); err != nil {
		return nil, err
	}
	if err := d.overflow.Reserve(buddyBytes); err != nil {
		d.primary.Release(devBytes)
		return nil, err
	}
	mig := &migration{target: target, moved: make([]bool, entries)}
	d.mu.Lock()
	mig.reg = d.grabRegion(regionSlots(entries), devBytes, buddyBytes)
	a.mig = mig
	d.mu.Unlock()
	return mig, nil
}

// commitMigration swaps a onto the migration's layout once every entry has
// moved, retires the old region and returns the stored bytes re-packed.
// Caller holds migMu.
func (d *Device) commitMigration(a *Allocation, mig *migration) int64 {
	d.mu.Lock()
	oldReg := a.reg
	a.target = mig.target
	a.reg = mig.reg
	a.mig = nil
	d.freeRegion(oldReg)
	d.mu.Unlock()

	d.primary.Release(oldReg.devBytes)
	d.overflow.Release(oldReg.buddyBytes)
	return mig.bytes.Load()
}

// MigrationStats reports what ApplyReprofile actually did.
type MigrationStats struct {
	// Applied counts decisions executed; Skipped counts decisions whose
	// allocation was gone or whose current target no longer matched the
	// plan's Old (e.g. freed or retargeted since the plan was computed).
	Applied, Skipped int
	// MigratedBytes is the stored compressed bytes re-packed between
	// layouts — the actual counterpart of ReprofilePlan.TotalMigrationBytes.
	MigratedBytes int64
}

// ApplyReprofile executes a checkpoint-time ReprofilePlan on the live
// device: each decision's allocation is migrated from its Old target to its
// New one with Retarget, concurrently with reader/writer traffic.
// Decisions that no longer match the device (allocation freed, or its
// target already changed) are skipped, so a stale plan degrades to a
// partial application rather than corrupting accounting. On error the
// already-applied decisions remain in force.
func (d *Device) ApplyReprofile(plan *ReprofilePlan) (MigrationStats, error) {
	var st MigrationStats
	if plan == nil {
		return st, nil
	}
	for _, dec := range plan.Decisions {
		a := d.allocByName(dec.Name)
		if a == nil {
			st.Skipped++
			continue
		}
		// The stale check happens inside retarget, under migMu: a Free or
		// Retarget racing in after the lookup turns into a skip, never a
		// misdirected migration.
		moved, err := d.retarget(a, dec.New, &dec.Old)
		if errors.Is(err, ErrFreed) || errors.Is(err, errStaleDecision) {
			st.Skipped++
			continue
		}
		if err != nil {
			return st, fmt.Errorf("core: reprofile %s %s->%s: %w", dec.Name, dec.Old, dec.New, err)
		}
		st.Applied++
		st.MigratedBytes += moved
	}
	return st, nil
}

// allocByName returns the first live allocation with the given name, nil if
// none.
func (d *Device) allocByName(name string) *Allocation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, a := range d.allocs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Targets returns the name -> target map of the live allocations — the
// ground-truth "current" input for the next PlanReprofile. Read it from the
// device after ApplyReprofile rather than mirroring decisions by hand: a
// skipped decision never applied, so a hand-maintained map would drift.
func (d *Device) Targets() map[string]TargetRatio {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := make(map[string]TargetRatio, len(d.allocs))
	for _, a := range d.allocs {
		m[a.Name] = a.target
	}
	return m
}

// ReprofileHorizon returns the access horizon the device amortizes
// migrations over (the WithReprofileHorizon option).
func (d *Device) ReprofileHorizon() int64 { return d.cfg.ReprofileHorizon }

// ReprofileWorthwhile reports whether applying the plan pays for itself
// within the device's configured horizon — the go/no-go a long-running
// serving loop asks at every checkpoint before calling ApplyReprofile.
func (d *Device) ReprofileWorthwhile(plan *ReprofilePlan) bool {
	return plan != nil && plan.Worthwhile(d.cfg.ReprofileHorizon)
}
