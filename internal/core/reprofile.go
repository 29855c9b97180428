package core

import (
	"math/bits"

	"buddy/internal/compress"
)

// The paper keeps a single static target ratio per allocation because
// changing a target mid-run requires reallocating and moving pages (§3.4).
// It notes the extension this file implements: "the target ratios can be
// periodically updated for long running applications, e.g., for DL
// training, the target ratio update can be combined with checkpointing."
//
// PlanReprofile is that checkpoint-time pass. The profiler needs one sector
// histogram per allocation, and a live allocation holds it in its 4-bit
// metadata (§3.2), so nothing is copied to the host or re-encoded. The plan
// says which allocations should change, what the whole-program compression
// and buddy-access numbers become, and how many bytes each change migrates.

// ReprofileDecision describes one allocation's proposed target change.
type ReprofileDecision struct {
	// Alloc is the allocation the decision was planned for.
	Alloc *Allocation
	// Old and New are the current and proposed target ratios.
	Old, New TargetRatio
	// MigrationBytes is the data that must move to apply the change: the
	// allocation's compressed contents are re-laid-out into new device and
	// buddy slots (both directions of the interconnect are involved when
	// the device reservation shrinks).
	MigrationBytes int64
	// OldOverflowFrac and NewOverflowFrac are the expected buddy-access
	// fractions before and after.
	OldOverflowFrac, NewOverflowFrac float64
}

// ReprofilePlan is the outcome of a checkpoint-time re-profiling pass.
type ReprofilePlan struct {
	// Decisions holds one entry per allocation whose target changes.
	Decisions []ReprofileDecision
	// Result is the fresh profiling result the plan is based on.
	Result *ProfileResult
	// TotalMigrationBytes sums the migration cost.
	TotalMigrationBytes int64
	// RatioBefore and RatioAfter are the whole-program device compression
	// ratios under the old and new targets.
	RatioBefore, RatioAfter float64
	// BuddyFracBefore and BuddyFracAfter are the expected buddy-access
	// fractions under the old and new targets, measured on the new data.
	BuddyFracBefore, BuddyFracAfter float64
}

// ReprofileHorizon is the access horizon a checkpoint amortizes a plan's
// migration over: plan.Worthwhile(ReprofileHorizon) is the go/no-go a
// long-running serving loop asks before calling ApplyReprofile.
const ReprofileHorizon = 1 << 30

// Worthwhile reports whether applying the plan is justified under a simple
// amortization rule: the migration cost (bytes moved) must be repaid by the
// buddy-access reduction within horizonAccesses memory accesses, each saved
// overflow avoiding one 32 B interconnect transfer.
func (p *ReprofilePlan) Worthwhile(horizonAccesses int64) bool {
	saved := (p.BuddyFracBefore - p.BuddyFracAfter) * float64(horizonAccesses) * 32
	return saved > float64(p.TotalMigrationBytes)
}

// ClassHistogram counts the allocation's entries by compressed sector class,
// from its metadata: per line, under the line's stripe, the line's class
// masks are popcounted, so under concurrent writers the result is a sum of
// per-line snapshots. A never-written entry reads as zeros and counts under
// its codec's zero-entry class (1 under FVC and C-PACK), as a snapshot of its
// bytes profiles. Mid-relayout each entry counts under its home layout's
// codec. A freed allocation reports no entries.
//
//buddy:hotpath
func (a *Allocation) ClassHistogram() (h [compress.SectorsPerEntry + 1]int) {
	for base := 0; base < a.EntryCount; base += EntriesPerMetadataLine {
		a.mu.RLock()
		cur, m := a.cur, a.mig
		if a.freed {
			a.mu.RUnlock()
			return [compress.SectorsPerEntry + 1]int{}
		}
		sh := a.shard(base)
		sh.Lock()
		class := a.meta.line(base / EntriesPerMetadataLine).classes()
		class[0] &= lineBits(0, min(a.EntryCount-base, EntriesPerMetadataLine)) // a partial tail line's past-end entries read class 0
		if cur.dev.zeroClass != 0 || m != nil && m.next.dev.zeroClass != 0 {
			for zero := class[0]; zero != 0; zero &= zero - 1 {
				if k := base + bits.TrailingZeros64(zero); !a.store.written(k) {
					h[0]--
					h[home(cur, m, k).dev.zeroClass]++
				}
			}
		}
		sh.Unlock()
		a.mu.RUnlock()
		for s, c := range class {
			h[s] += bits.OnesCount64(c)
		}
	}
	return h
}

// PlanReprofile computes a checkpoint-time target update for live
// allocations: each one's ClassHistogram is one snapshot's observation, run
// through the same target selection as ProfileIndexes, against the target it
// is at now. Decisions carry their allocation: nothing is resolved by name.
func PlanReprofile(allocs []*Allocation, opt ProfileOptions) *ReprofilePlan {
	profiles := make([]*AllocationProfile, len(allocs))
	old := make([]TargetRatio, len(allocs))
	var program perClass
	for i, a := range allocs {
		h := a.ClassHistogram()
		old[i] = a.Target()
		profiles[i] = &AllocationProfile{Name: a.Name, MinZeroFrac: 1, Target: old[i]}
		profiles[i].observe(h)
		for s, n := range h {
			program[s] += n
		}
	}
	plan := &ReprofilePlan{}
	// Until selection, each profile's Target is the one in force.
	plan.RatioBefore, plan.BuddyFracBefore = programRatios(profiles)
	plan.Result = chooseTargets(profiles, []perClass{program}, opt)
	plan.RatioAfter, plan.BuddyFracAfter = plan.Result.CompressionRatio, plan.Result.BuddyAccessFraction
	for i, p := range profiles {
		if p.Target == old[i] {
			continue
		}
		// Migration: every entry's stored sectors are rewritten into the new
		// layout, in the storedBytes unit the live migration counts, so this
		// estimate and MigrationStats.MigratedBytes compare 1:1.
		var cost int64
		for s, n := range p.Hist {
			cost += int64(storedBytes(s) * n)
		}
		plan.Decisions = append(plan.Decisions, ReprofileDecision{
			Alloc:           allocs[i],
			Old:             old[i],
			New:             p.Target,
			MigrationBytes:  cost,
			OldOverflowFrac: overflowFrac(p, old[i]),
			NewOverflowFrac: p.OverflowFrac,
		})
		plan.TotalMigrationBytes += cost
	}
	return plan
}
