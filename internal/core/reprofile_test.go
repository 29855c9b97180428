package core

import (
	"testing"

	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/memory"
)

// driftSnapshot builds a snapshot whose "drifting" allocation changes
// compressibility with phase (0: all zero, 1: half-compressible). A large
// incompressible ballast allocation keeps the aggregate ratio under the 4x
// carve-out cap so the profiler's per-allocation choices stay visible.
func driftSnapshot(phase int) *memory.Snapshot {
	s := &memory.Snapshot{Index: phase}
	ballast := memory.NewAllocation("ballast", 3072*128)
	gen.Random{}.Fill(ballast.Data, gen.NewRNG(77, 5))
	a := memory.NewAllocation("drifting", 1024*128)
	var g gen.Generator
	if phase == 0 {
		g = gen.Zeros{}
	} else {
		g = gen.Noisy64{NoiseBits: 8, HiStep: 1}
	}
	g.Fill(a.Data, gen.NewRNG(uint64(phase), 3))
	s.Allocations = append(s.Allocations, ballast, a)
	return s
}

func TestPlanReprofileDetectsDrift(t *testing.T) {
	bpc := compress.NewBPC()
	// Initially profiled while the data was all zero: 16x.
	initial := Profile([]*memory.Snapshot{driftSnapshot(0)}, bpc, FinalDesign())
	if initial.Targets()["drifting"] != Target16x {
		t.Fatalf("initial target = %s, want 16x", initial.Targets()["drifting"])
	}
	// At the next checkpoint the data has densified to ~2x material.
	plan := PlanReprofile(initial.Targets(), []*memory.Snapshot{driftSnapshot(1)}, bpc, FinalDesign())
	if len(plan.Decisions) != 1 {
		t.Fatalf("want one decision, got %d", len(plan.Decisions))
	}
	d := plan.Decisions[0]
	if d.Old != Target16x || d.New != Target2x {
		t.Errorf("decision %s -> %s, want 16x -> 2x", d.Old, d.New)
	}
	if d.MigrationBytes <= 0 {
		t.Error("target change must report a migration cost")
	}
	// Keeping the stale 16x target on dense data would overflow the whole
	// allocation (a quarter of the program's entries).
	if d.OldOverflowFrac < 0.95 {
		t.Errorf("stale per-allocation overflow = %.2f, want ~1.0", d.OldOverflowFrac)
	}
	if d.NewOverflowFrac > 0.05 {
		t.Errorf("updated per-allocation overflow = %.2f, want ~0", d.NewOverflowFrac)
	}
	if plan.BuddyFracBefore < 0.2 || plan.BuddyFracBefore > 0.3 {
		t.Errorf("program-wide stale overflow = %.2f, want ~0.25", plan.BuddyFracBefore)
	}
	if plan.BuddyFracAfter > 0.02 {
		t.Errorf("program-wide updated overflow = %.2f, want ~0", plan.BuddyFracAfter)
	}
	// The after numbers are the fresh profile's own, not a second sum.
	if plan.RatioAfter != plan.Result.CompressionRatio {
		t.Errorf("RatioAfter %v != Result.CompressionRatio %v", plan.RatioAfter, plan.Result.CompressionRatio)
	}
	if plan.BuddyFracAfter != plan.Result.BuddyAccessFraction {
		t.Errorf("BuddyFracAfter %v != Result.BuddyAccessFraction %v", plan.BuddyFracAfter, plan.Result.BuddyAccessFraction)
	}
	// A long-running application amortizes the migration easily; a short
	// horizon does not (§3.4: "unless the applications are very long
	// running and the overheads are amortized").
	if !plan.Worthwhile(1 << 30) {
		t.Error("long horizon should justify the update")
	}
	if plan.Worthwhile(10) {
		t.Error("ten accesses cannot amortize a full migration")
	}
}

func TestPlanReprofileStableDataNoChanges(t *testing.T) {
	bpc := compress.NewBPC()
	snaps := []*memory.Snapshot{driftSnapshot(1)}
	initial := Profile(snaps, bpc, FinalDesign())
	plan := PlanReprofile(initial.Targets(), snaps, bpc, FinalDesign())
	if len(plan.Decisions) != 0 {
		t.Errorf("stable data should need no changes, got %d", len(plan.Decisions))
	}
	if plan.TotalMigrationBytes != 0 {
		t.Errorf("no changes should cost nothing, got %d", plan.TotalMigrationBytes)
	}
	if plan.RatioBefore != plan.RatioAfter {
		t.Errorf("ratio should be unchanged: %.2f vs %.2f", plan.RatioBefore, plan.RatioAfter)
	}
}

func TestPlanReprofileUnknownAllocationsDefault1x(t *testing.T) {
	bpc := compress.NewBPC()
	plan := PlanReprofile(nil, []*memory.Snapshot{driftSnapshot(0)}, bpc, FinalDesign())
	if len(plan.Decisions) != 1 || plan.Decisions[0].Old != Target1x {
		t.Fatalf("unknown allocation should default to 1x, got %+v", plan.Decisions)
	}
	if plan.RatioAfter <= plan.RatioBefore {
		t.Error("profiling zero data should raise the ratio above 1x")
	}
}
