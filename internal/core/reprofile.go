package core

import (
	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/memory"
)

// The paper keeps a single static target ratio per allocation because
// changing a target mid-run requires reallocating and moving pages (§3.4).
// It notes the extension this file implements: "the target ratios can be
// periodically updated for long running applications, e.g., for DL
// training, the target ratio update can be combined with checkpointing."
//
// PlanReprofile is that checkpoint-time pass: given the targets currently
// in force and fresh profiling snapshots, it reports which allocations
// should change, what the whole-program compression and buddy-access
// numbers become, and how many bytes each change migrates — the inputs a
// framework needs to decide whether the update pays for itself.

// ReprofileDecision describes one allocation's proposed target change.
type ReprofileDecision struct {
	// Name of the allocation.
	Name string
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

// PlanReprofile computes a checkpoint-time target update. current maps
// allocation names to the targets in force (missing names default to 1x);
// snaps are fresh profiling dumps of the current data. The fresh dumps are
// indexed once (see internal/analysis); callers that already hold indexes
// use PlanReprofileIndexes.
func PlanReprofile(current map[string]TargetRatio, snaps []*memory.Snapshot,
	c compress.Codec, opt ProfileOptions) *ReprofilePlan {
	return PlanReprofileIndexes(current, analysis.BuildRun(snaps, c), opt)
}

// PlanReprofileIndexes is PlanReprofile over pre-built snapshot indexes. The
// after numbers are the fresh result's own; the before numbers are the same
// sums over the same profiles under the targets in force.
func PlanReprofileIndexes(current map[string]TargetRatio, idx []*analysis.Index,
	opt ProfileOptions) *ReprofilePlan {
	res := ProfileIndexes(idx, opt)
	plan := &ReprofilePlan{Result: res, RatioAfter: res.CompressionRatio, BuddyFracAfter: res.BuddyAccessFraction}
	// A name missing from current is the zero TargetRatio, 1x.
	inForce := func(p *AllocationProfile) TargetRatio { return current[p.Name] }
	plan.RatioBefore, plan.BuddyFracBefore = programRatios(res.Allocations, inForce)
	for _, p := range res.Allocations {
		old := inForce(p)
		if p.Target == old {
			continue
		}
		// Migration: every entry's stored sectors are rewritten into the
		// new layout; stored size comes from the profiled histogram, in the
		// same storedBytes unit the live migration counts, so this estimate
		// and MigrationStats.MigratedBytes compare 1:1.
		var stored float64
		var obs float64
		for s, n := range p.Hist {
			stored += float64(storedBytes(s)) * float64(n)
			obs += float64(n)
		}
		perEntry := 128.0
		if obs > 0 {
			perEntry = stored / obs
		}
		entries := float64(p.Entries)
		plan.Decisions = append(plan.Decisions, ReprofileDecision{
			Name:            p.Name,
			Old:             old,
			New:             p.Target,
			MigrationBytes:  int64(perEntry * entries),
			OldOverflowFrac: overflowFrac(p, old),
			NewOverflowFrac: p.OverflowFrac,
		})
		plan.TotalMigrationBytes += int64(perEntry * entries)
	}
	return plan
}
