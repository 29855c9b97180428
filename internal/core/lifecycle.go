package core

import (
	"errors"
	"fmt"
	"slices"
)

// Allocation lifecycle and live relayout. Free retires an allocation —
// reservations return to their tiers, its region of the modeled address
// space becomes a reusable hole, and every later I/O fails with ErrFreed. A
// relayout moves a live allocation onto a new layout while reader/writer
// traffic continues: under a new target ratio (Retarget, and ApplyReprofile
// driving it from a checkpoint-time ReprofilePlan — the §3.4 extension: "the
// target ratios can be periodically updated for long running applications"),
// on another device (MoveTo, under the pool's MigrateHandle and Drain), or
// both. It is one mechanism whichever of the two changes.
//
// Concurrency scheme: the control plane of one allocation serializes on its
// ctl (lock order Allocation.ctl -> Device.mu -> Allocation.mu -> entry
// shards). A relayout reserves the next layout, installs a per-allocation
// epoch — the mig pointer with its moved[] bitmap — under a.mu held
// exclusively, then streams entries to the next layout on the same
// GOMAXPROCS-bounded span pool as the batch data path, as passes of the
// entry-table walker (relocate.go). Each entry moves under its shard lock,
// the same lock every reader and writer takes, and the shard key is fixed
// at Malloc rather than taken from the layout, so an in-flight WriteAt
// simply lands in whichever layout owns the entry when it commits. The
// final swap of a.cur happens under a.mu held exclusively, after which the
// old layout's reservations are released and its region becomes a hole. A
// destination whose tier dies mid-move is undone by the same pass run the
// other way (handBack).

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

// migration is the relayout epoch of one allocation: the layout its entries
// are being handed to plus the per-entry handoff bitmap. moved[i] is guarded
// by entry i's shard lock; the struct is installed, turned around
// (handBack) and cleared under a.mu held exclusively. relocMigrate passes
// stream the entries across.
type migration struct {
	next      *layout
	moved     []bool // moved[i]: entry i is placed in next
	transcode bool   // the two layouts' devices frame streams with different codecs
	back      bool   // handing back: next is the layout the move started from
}

// grabRegion hands out a region of the given shape, reusing the first
// retired hole that fits in all three spaces and growing the modeled entry
// table only when none does. Caller must hold d.mu exclusively.
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
	return r
}

// abuts reports whether next begins where r ends in all three spaces.
func (r region) abuts(next region) bool {
	return r.firstEntry+r.slots == next.firstEntry &&
		r.deviceOff+r.devBytes == next.deviceOff &&
		r.buddyOff+r.buddyBytes == next.buddyOff
}

// freeRegion returns a region to the hole list, coalescing it with the hole
// before it and the hole after it where they are contiguous in all three
// spaces; the merged hole takes the first one's place in the list. Caller
// must hold d.mu exclusively.
func (d *Device) freeRegion(r region) {
	at := -1 // the neighbour r has been merged into, if any
	for i, h := range d.holes {
		switch {
		case h.abuts(r):
			r.firstEntry, r.deviceOff, r.buddyOff = h.firstEntry, h.deviceOff, h.buddyOff
		case r.abuts(h):
		default:
			continue
		}
		r.slots += h.slots
		r.devBytes += h.devBytes
		r.buddyBytes += h.buddyBytes
		if at >= 0 {
			d.holes = slices.Delete(d.holes, i, i+1)
			break // a region has two neighbours at most
		}
		at = i
	}
	if at < 0 {
		d.holes = append(d.holes, r)
	} else {
		d.holes[at] = r
	}
}

// Free releases an allocation: its device and buddy reservations return to
// their tiers, its region becomes reusable by later Mallocs, and every
// subsequent I/O on the allocation fails with an error wrapping ErrFreed.
// Freeing twice is an error, and so is freeing through a device the
// allocation does not live on. An in-flight ReadAt/WriteAt may complete its
// current entries; entries it attempts after Free fail like any other I/O.
func (d *Device) Free(a *Allocation) error {
	if a == nil {
		return fmt.Errorf("core: Free of a nil allocation")
	}
	return a.free(d)
}

// Close releases the allocation on whichever device it lives on; Allocation
// satisfies io.Closer so regions can sit behind defer and resource-managing
// helpers.
func (a *Allocation) Close() error { return a.free(nil) }

// free is Free; a non-nil owner must be the allocation's device. Holding ctl
// guarantees no relayout is in flight on a while it is dismantled.
func (a *Allocation) free(owner *Device) error {
	a.ctl.Lock()
	defer a.ctl.Unlock()
	a.mu.Lock()
	l := a.cur
	switch {
	case a.freed:
		a.mu.Unlock()
		return a.errFreed()
	case owner != nil && l.dev != owner:
		a.mu.Unlock()
		return fmt.Errorf("core: Free of an allocation not owned by this device")
	}
	a.freed = true
	// Every pass checks freed before it touches an entry, so the streams can
	// go now rather than when the last *Allocation does.
	a.store = streamStore{}
	a.mu.Unlock()
	l.dev.retire(l, a)
	return nil
}

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

// errStale marks a control-plane request the allocation outran between the
// caller's look and ctl: it left the device the request came through, or its
// target is no longer the one a reprofile decision was planned against.
// ApplyReprofile maps it to a skip.
var errStale = errors.New("core: the allocation changed since it was looked up")

// Retarget re-lays a live allocation out under a new target compression
// ratio (§3.4: "requires re-allocating the memory for that page and moving
// data"); see relayout. It returns the stored bytes re-packed (the migration
// cost a ReprofilePlan estimates), 0 when the allocation is at target
// already.
func (d *Device) Retarget(a *Allocation, target TargetRatio) (int64, error) {
	return d.retarget(a, target, nil)
}

// retarget is Retarget with an optional expected current target: when
// expectOld is non-nil and the allocation's target no longer matches (a
// concurrent Retarget won the race since the caller looked), it fails with
// errStale instead of migrating, as it does for an allocation that has left
// d. The checks run under ctl, where no control-plane operation can
// interleave.
func (d *Device) retarget(a *Allocation, target TargetRatio, expectOld *TargetRatio) (int64, error) {
	if a == nil {
		return 0, fmt.Errorf("core: Retarget of a nil allocation")
	}
	a.ctl.Lock()
	defer a.ctl.Unlock()
	cur := a.layout()
	if cur.dev != d {
		return 0, fmt.Errorf("core: Retarget of %s through a device it does not live on: %w", a.Name, errStale)
	}
	if expectOld != nil && cur.target != *expectOld {
		return 0, fmt.Errorf("core: %s is at %s, plan expected %s: %w", a.Name, cur.target, *expectOld, errStale)
	}
	return a.relayout(d, target)
}

// MoveTo moves a live allocation to dst, target ratio unchanged; see
// relayout. Moving to the device it is on is a no-op. Moving off a failed
// device works: the streams are the carve-out mirror's surviving copy, which
// is what evacuating a dead tier reads.
func (a *Allocation) MoveTo(dst *Device) error {
	a.ctl.Lock()
	defer a.ctl.Unlock()
	_, err := a.relayout(dst, a.layout().target)
	return err
}

// relayout moves a onto a fresh layout on dev under target — the one
// relocation mechanism. The next layout's reservations are taken up front
// (ErrOutOfMemory, or ErrDeviceFailed for a dead destination, leaves the
// allocation untouched); entries then stream to it on the span pool,
// concurrently with reader/writer traffic, as framed streams — re-encoded
// only when the two devices' codecs differ; finally a.cur is swapped and the
// old layout retired. If the move cannot finish — the destination's tier
// died under it, or a stream would not decode for re-encoding — the entries
// already handed over are handed back by the same pass and the allocation
// stays where it was. It returns the stored bytes re-packed. Caller holds
// ctl.
func (a *Allocation) relayout(dev *Device, target TargetRatio) (int64, error) {
	a.mu.RLock()
	cur, freed := a.cur, a.freed
	a.mu.RUnlock()
	if freed {
		return 0, a.errFreed()
	}
	if cur.dev == dev && cur.target == target {
		return 0, nil
	}
	m, err := a.beginRelayout(dev, target)
	if err != nil {
		return 0, err
	}
	// The pass's other error is ErrFreed, and Free waits on ctl. Entries
	// written concurrently after their move land in the next layout directly.
	_, _, moved, err := a.spanPass(relocMigrate, 0, a.EntryCount, nil)
	if err != nil {
		a.handBack(m)
		a.spanPass(relocMigrate, 0, a.EntryCount, nil) // checks no device: cannot fail
	}
	a.commitRelayout(m)
	if err != nil {
		return 0, fmt.Errorf("core: relayout of %s handed back: %w", a.Name, err)
	}
	return moved, nil
}

// beginRelayout reserves a's next layout and installs the epoch; from here
// every entry operation resolves its home through it. Both layouts stay
// reserved while the move runs, so it can always finish in one direction or
// the other. An allocation arriving from another device is listed on dev
// from now on: it holds reservations there, and dev's Recover must wait for
// it.
func (a *Allocation) beginRelayout(dev *Device, target TargetRatio) (*migration, error) {
	next, err := dev.newLayout(a.EntryCount, target)
	if err != nil {
		return nil, err
	}
	cur := a.layout()
	if dev != cur.dev {
		dev.list(a)
	}
	m := &migration{next: next, moved: make([]bool, a.EntryCount), transcode: !cur.dev.SameCodecAs(dev)}
	a.mu.Lock()
	a.mig = m
	a.mu.Unlock()
	return m, nil
}

// handBack turns a relayout around: the layouts trade places and every
// moved bit flips, so "not yet moved" now names exactly the entries that had
// reached the abandoned layout, and the same forward pass carries them home.
// That pass checks no device — the allocation never left the side it is
// going back to — so a hand-back cannot strand an entry.
func (a *Allocation) handBack(m *migration) {
	a.mu.Lock()
	a.cur, m.next, m.back = m.next, a.cur, true
	for i := range m.moved {
		m.moved[i] = !m.moved[i]
	}
	a.mu.Unlock()
}

// commitRelayout swaps a onto the epoch's next layout once every entry has
// moved and retires the layout it left.
func (a *Allocation) commitRelayout(m *migration) {
	a.mu.Lock()
	old := a.cur
	a.cur, a.mig = m.next, nil
	a.mu.Unlock()
	var unlist *Allocation
	if old.dev != m.next.dev {
		unlist = a
	}
	old.dev.retire(old, unlist)
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
// Decisions that no longer match the device (allocation freed, moved to
// another device, or its target already changed) are skipped, so a stale
// plan degrades to a partial application rather than corrupting accounting.
// On error the already-applied decisions remain in force.
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
		// The stale check happens inside retarget, under ctl: a Free, MoveTo
		// or Retarget racing in after the lookup turns into a skip, never a
		// misdirected migration.
		moved, err := d.retarget(a, dec.New, &dec.Old)
		if errors.Is(err, ErrFreed) || errors.Is(err, errStale) {
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

// allocByName returns the first listed allocation with the given name, nil
// if none.
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
		m[a.Name] = a.Target()
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
