package core

import (
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/memory"
)

// buildSnapshot synthesizes a snapshot from (name, entries, generator)
// triples with a fixed seed.
func buildSnapshot(t *testing.T, idx int, parts []struct {
	name    string
	entries int
	g       gen.Generator
}) *memory.Snapshot {
	t.Helper()
	s := &memory.Snapshot{Index: idx}
	for i, p := range parts {
		a := memory.NewAllocation(p.name, p.entries*128)
		p.g.Fill(a.Data, gen.NewRNG(uint64(idx*31+i), 3))
		s.Allocations = append(s.Allocations, a)
	}
	return s
}

func TestProfilePerAllocationTargets(t *testing.T) {
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{
		{"zeros", 512, gen.Zeros{}},
		{"compressible", 512, gen.Noisy32{NoiseBits: 4, SmoothStep: 3}}, // 1 sector
		{"half", 512, gen.Noisy64{NoiseBits: 8, HiStep: 1}},             // 2 sectors
		{"random", 512, gen.Random{}},                                   // 4 sectors
	}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, parts), buildSnapshot(t, 1, parts)}
	res := Profile(snaps, compress.NewBPC(), FinalDesign())
	targets := res.Targets()
	if targets["zeros"] != Target16x {
		t.Errorf("zeros target = %s, want 16x", targets["zeros"])
	}
	if targets["compressible"] != Target4x {
		t.Errorf("compressible target = %s, want 4x", targets["compressible"])
	}
	if targets["half"] != Target2x {
		t.Errorf("half target = %s, want 2x", targets["half"])
	}
	if targets["random"] != Target1x {
		t.Errorf("random target = %s, want 1x", targets["random"])
	}
	if res.BuddyAccessFraction > 0.01 {
		t.Errorf("clean class assignment should have ~0 overflow, got %.3f", res.BuddyAccessFraction)
	}
}

func TestProfileNaiveSingleTarget(t *testing.T) {
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{
		{"a", 512, gen.Noisy64{NoiseBits: 8, HiStep: 1}}, // 2 sectors
		{"b", 512, gen.Random{}},                         // 4 sectors
	}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, parts)}
	res := Profile(snaps, compress.NewBPC(), Naive())
	targets := res.Targets()
	if targets["a"] != targets["b"] {
		t.Errorf("naive mode must choose one program-wide target, got %s vs %s", targets["a"], targets["b"])
	}
	// Program-average compressed size is (64+128)/2 = 96 B -> ratio 1.33:
	// naive rounds the overall compressibility down to an allowed target,
	// and the 4-sector half of the program overflows under it.
	if targets["a"] != Target4by3x {
		t.Errorf("naive target = %s, want 1.33x", targets["a"])
	}
	if res.BuddyAccessFraction < 0.4 {
		t.Errorf("naive average-based target should overflow ~50%%, got %.2f", res.BuddyAccessFraction)
	}
}

func TestProfileThresholdControlsAggressiveness(t *testing.T) {
	// 60% of entries compress to 1 sector, 40% are random: threshold below
	// 0.4 forbids 4x; threshold 0.45 allows it.
	mix := gen.Blend{A: gen.Noisy32{NoiseBits: 4, SmoothStep: 1}, B: gen.Random{}, PA: 0.6}
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"mix", 4096, mix}}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, parts)}

	lo := FinalDesign()
	lo.Threshold = 0.10
	resLo := Profile(snaps, compress.NewBPC(), lo)
	hi := FinalDesign()
	hi.Threshold = 0.45
	resHi := Profile(snaps, compress.NewBPC(), hi)
	if resLo.CompressionRatio >= resHi.CompressionRatio {
		t.Errorf("higher threshold should compress more: %.2f vs %.2f",
			resLo.CompressionRatio, resHi.CompressionRatio)
	}
	if resLo.BuddyAccessFraction > resHi.BuddyAccessFraction {
		t.Errorf("higher threshold should not reduce buddy accesses: %.3f vs %.3f",
			resLo.BuddyAccessFraction, resHi.BuddyAccessFraction)
	}
	if resHi.BuddyAccessFraction > 0.45 {
		t.Errorf("overflow %.3f exceeds the 45%% threshold", resHi.BuddyAccessFraction)
	}
}

func TestProfileZeroPageRequiresPersistence(t *testing.T) {
	// An allocation that is zero in snapshot 0 but dense in snapshot 1 must
	// NOT get the 16x target (§3.4: "remain so for the entirety of the run").
	s0 := buildSnapshot(t, 0, []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"flaky", 512, gen.Zeros{}}})
	s1 := buildSnapshot(t, 1, []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"flaky", 512, gen.Noisy64{NoiseBits: 8, HiStep: 1}}})
	res := Profile([]*memory.Snapshot{s0, s1}, compress.NewBPC(), FinalDesign())
	if res.Targets()["flaky"] == Target16x {
		t.Error("transiently-zero allocation must not be marked 16x")
	}
}

func TestProfileCarveoutCap(t *testing.T) {
	// All-zero program: unconstrained targets would be 16x everywhere,
	// blowing past the 4x carve-out limit; the profiler must demote.
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{
		{"z1", 1024, gen.Zeros{}},
		{"z2", 1024, gen.Zeros{}},
		{"z3", 1024, gen.Zeros{}},
	}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, parts)}
	res := Profile(snaps, compress.NewBPC(), FinalDesign())
	if res.CompressionRatio > 4.0+1e-9 {
		t.Errorf("aggregate ratio %.2f exceeds the 4x carve-out cap", res.CompressionRatio)
	}
}

// TestProfileThresholdZero: a Buddy Threshold of 0 lets no entry overflow,
// so a 5% incompressible share keeps the allocation at 1x instead of the 4x
// a 30% threshold would pick.
func TestProfileThresholdZero(t *testing.T) {
	mix := gen.Blend{A: gen.Noisy32{NoiseBits: 4, SmoothStep: 1}, B: gen.Random{}, PA: 0.95}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"mix", 4096, mix}})}
	if res := Profile(snaps, compress.NewBPC(), FinalDesign()); res.BuddyAccessFraction == 0 {
		t.Fatal("at the 30% threshold the incompressible share should overflow")
	}
	opt := FinalDesign()
	opt.Threshold = 0
	res := Profile(snaps, compress.NewBPC(), opt)
	if res.BuddyAccessFraction != 0 {
		t.Errorf("threshold 0: expected buddy-access fraction %.4f, want 0 (target %s)",
			res.BuddyAccessFraction, res.Targets()["mix"])
	}
}

func TestMeasureSnapshotFixedTargets(t *testing.T) {
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"w", 1024, gen.Blend{A: gen.Zeros{}, B: gen.Random{}, PA: 0.5}}}
	s := buildSnapshot(t, 0, parts)
	x := analysis.Build(s, compress.NewBPC())
	ratio, buddy := MeasureIndex(x, map[string]TargetRatio{"w": Target2x})
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("fixed 2x target should report 2x device ratio, got %.2f", ratio)
	}
	if buddy < 0.4 || buddy > 0.6 {
		t.Errorf("half-random data under 2x should overflow ~50%%, got %.2f", buddy)
	}
	// Unknown allocations default to 1x.
	ratio2, buddy2 := MeasureIndex(x, nil)
	if ratio2 != 1 || buddy2 != 0 {
		t.Errorf("default 1x should give ratio 1 and no overflow, got %.2f/%.2f", ratio2, buddy2)
	}
}

func TestBestAchievableCapped(t *testing.T) {
	parts := []struct {
		name    string
		entries int
		g       gen.Generator
	}{{"z", 2048, gen.Zeros{}}}
	snaps := []*memory.Snapshot{buildSnapshot(t, 0, parts)}
	res := Profile(snaps, compress.NewBPC(), FinalDesign())
	if res.BestAchievable > 4.0+1e-9 {
		t.Errorf("best achievable %.2f must respect the carve-out cap", res.BestAchievable)
	}
}

func TestProfileSkipsEmptyInstances(t *testing.T) {
	// Regression: an allocation that is present but empty in one profiling
	// snapshot carries no evidence about the data and must not drag
	// MinZeroFrac to 0 and veto the 16x zero-page target (the pre-index
	// code skipped empty instances via a NaN comparison).
	zeros := memory.NewAllocation("z", 512*128)
	ballast := memory.NewAllocation("r", 2048*128) // keeps the aggregate under the 4x cap
	gen.Random{}.Fill(ballast.Data, gen.NewRNG(9, 3))
	full := &memory.Snapshot{Index: 1, Allocations: []*memory.Allocation{zeros, ballast}}
	empty := &memory.Snapshot{Index: 0, Allocations: []*memory.Allocation{{Name: "z"}, ballast}}
	for _, order := range [][]*memory.Snapshot{{empty, full}, {full, empty}} {
		res := Profile(order, compress.NewBPC(), FinalDesign())
		if got := res.Targets()["z"]; got != Target16x {
			t.Errorf("mostly-zero allocation with one empty dump: target %s, want 16x", got)
		}
		// Entries must come from the non-empty instance regardless of
		// snapshot order, so the allocation keeps its weight in the
		// aggregate ratio.
		zp := res.Allocations[0]
		if zp.Name != "z" {
			zp = res.Allocations[1]
		}
		if zp.Entries != 512 {
			t.Errorf("entries = %d, want 512", zp.Entries)
		}
		want := float64((512+2048)*128) / float64(512*8+2048*128)
		if res.CompressionRatio < want-0.01 || res.CompressionRatio > want+0.01 {
			t.Errorf("ratio = %.3f, want %.3f regardless of snapshot order", res.CompressionRatio, want)
		}
	}
}
