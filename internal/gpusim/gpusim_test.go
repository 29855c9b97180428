package gpusim

import (
	"testing"

	"buddy/internal/core"
	"buddy/internal/workloads"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.OpsPerWarp = 16
	return cfg
}

func benchmarkByName(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunDeterministic(t *testing.T) {
	b := benchmarkByName(t, "356.sp")
	dm := UncompressedModel(uint64(b.Footprint / 64))
	r1 := Run(b.Trace, dm, ModeIdeal, testConfig())
	r2 := Run(b.Trace, dm, ModeIdeal, testConfig())
	if r1.Cycles != r2.Cycles || r1.DRAMBytes != r2.DRAMBytes {
		t.Error("simulation must be deterministic")
	}
}

func TestModesDifferInTraffic(t *testing.T) {
	b := benchmarkByName(t, "VGG16")
	fp := uint64(b.Footprint / 64)
	dm := BuildDataModel(b, fp, 16384, core.FinalDesign())
	cfg := testConfig()

	ideal := Run(b.Trace, UncompressedModel(fp), ModeIdeal, cfg)
	bw := Run(b.Trace, dm, ModeBWOnly, cfg)
	bud := Run(b.Trace, dm, ModeBuddy, cfg)

	// Bandwidth compression must reduce device traffic on a compressible
	// streaming workload.
	if bw.DRAMBytes >= ideal.DRAMBytes {
		t.Errorf("bw-only DRAM bytes %d should be below ideal's %d", bw.DRAMBytes, ideal.DRAMBytes)
	}
	// Only buddy mode touches the link and the metadata cache.
	if bw.LinkReadBytes != 0 || bw.MetaMisses != 0 {
		t.Error("bw-only mode must not use buddy memory or metadata")
	}
	if bud.BuddyAccesses == 0 || bud.LinkReadBytes == 0 {
		t.Error("buddy mode on VGG16 should overflow some entries")
	}
	if bud.MetaHits+bud.MetaMisses == 0 {
		t.Error("buddy mode must consult the metadata cache")
	}
}

func TestHostTrafficOnlyForHPGMG(t *testing.T) {
	cfg := testConfig()
	hp := benchmarkByName(t, "FF_HPGMG")
	sp := benchmarkByName(t, "356.sp")
	rHP := Run(hp.Trace, UncompressedModel(uint64(hp.Footprint/64)), ModeIdeal, cfg)
	rSP := Run(sp.Trace, UncompressedModel(uint64(sp.Footprint/64)), ModeIdeal, cfg)
	if rHP.LinkReadBytes == 0 {
		t.Error("FF_HPGMG performs native host reads even in the ideal mode")
	}
	if rSP.LinkReadBytes != 0 {
		t.Error("356.sp has no host traffic")
	}
}

func TestLowerLinkBandwidthNeverHelps(t *testing.T) {
	b := benchmarkByName(t, "FF_HPGMG")
	fp := uint64(b.Footprint / 64)
	dm := BuildDataModel(b, fp, 16384, core.FinalDesign())
	cfg := testConfig()
	slow := Run(b.Trace, dm, ModeBuddy, cfg.WithLinkBandwidth(25))
	fast := Run(b.Trace, dm, ModeBuddy, cfg.WithLinkBandwidth(150))
	if slow.Cycles < fast.Cycles {
		t.Errorf("25 GB/s (%.0f cycles) should not beat 150 GB/s (%.0f)", slow.Cycles, fast.Cycles)
	}
}

func TestDataModelConsistency(t *testing.T) {
	b := benchmarkByName(t, "AlexNet")
	dm := BuildDataModel(b, uint64(b.Footprint/64), 16384, core.FinalDesign())
	// Lookup is a pure function of the address.
	for addr := uint64(0); addr < 1<<20; addr += 4096 {
		s1, t1 := dm.Lookup(addr)
		s2, t2 := dm.Lookup(addr)
		if s1 != s2 || t1 != t2 {
			t.Fatal("Lookup must be deterministic per address")
		}
		if s1 < 0 || s1 > 4 {
			t.Fatalf("sector count %d out of range", s1)
		}
	}
	// The uncompressed model is all raw.
	u := UncompressedModel(1 << 20)
	if s, target := u.Lookup(12345); s != 4 || target != core.Target1x {
		t.Errorf("uncompressed model returned %d sectors at %s", s, target)
	}
}

func TestOccupancyReducesWork(t *testing.T) {
	b := benchmarkByName(t, "356.sp")
	low := b.Trace
	low.Occupancy = 0.25
	cfg := testConfig()
	full := Run(b.Trace, UncompressedModel(uint64(b.Footprint/64)), ModeIdeal, cfg)
	quarter := Run(low, UncompressedModel(uint64(b.Footprint/64)), ModeIdeal, cfg)
	if quarter.MemAccesses >= full.MemAccesses {
		t.Error("quarter occupancy should simulate fewer warps")
	}
}

func TestDetailedAgreesWithFast(t *testing.T) {
	b := benchmarkByName(t, "356.sp")
	dm := UncompressedModel(uint64(b.Footprint / 64))
	cfg := testConfig()
	cfg.OpsPerWarp = 8
	fast := Run(b.Trace, dm, ModeIdeal, cfg)
	det := RunDetailed(b.Trace, dm, ModeIdeal, cfg)
	ratio := fast.Cycles / det.Cycles
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("fast/detailed cycles = %.2f, want within [0.4, 2.5]", ratio)
	}
	if fast.MemAccesses != det.MemAccesses {
		t.Errorf("both modes must execute the same trace: %d vs %d accesses",
			fast.MemAccesses, det.MemAccesses)
	}
}

func TestWarpQueueOrdering(t *testing.T) {
	var q warpQueue
	for _, k := range []float64{5, 1, 4, 2, 8, 3, 7, 6} {
		q.push(k, &warpState{id: int(k)})
	}
	prev := -1.0
	for q.len() > 0 {
		w := q.top()
		if float64(w.id) < prev {
			t.Fatalf("heap order violated: %d after %.0f", w.id, prev)
		}
		prev = float64(w.id)
		q.popTop()
	}
}

func TestAnalyticPositive(t *testing.T) {
	b := benchmarkByName(t, "354.cg")
	est := Analytic(b.Trace, UncompressedModel(1<<24), testConfig())
	if est <= 0 {
		t.Errorf("analytic estimate %.1f should be positive", est)
	}
}

// TestRunResultsPinned pins every Result field but the wall clock for one HPC
// and one DL benchmark in all three modes: a refactor of how load and store
// price an access must leave the simulated timing and traffic bit-identical.
func TestRunResultsPinned(t *testing.T) {
	pins := []struct {
		bench string
		mode  Mode
		want  Result
	}{
		{"352.ep", ModeIdeal, Result{Cycles: 7102.18806349206, Instructions: 258048, MemAccesses: 28672, L1Hits: 3751, L2Hits: 735, DRAMBytes: 3095808}},
		{"352.ep", ModeBWOnly, Result{Cycles: 6760.114158730178, Instructions: 258048, MemAccesses: 28672, L1Hits: 3747, L2Hits: 739, DRAMBytes: 927744}},
		{"352.ep", ModeBuddy, Result{Cycles: 6791.559492063503, Instructions: 258048, MemAccesses: 28672, L1Hits: 3743, L2Hits: 743, DRAMBytes: 941664, LinkReadBytes: 896, LinkWriteBytes: 1248, MetaHits: 23684, MetaMisses: 502, BuddyAccesses: 67}},
		{"VGG16", ModeIdeal, Result{Cycles: 6597.932996168633, Instructions: 172032, MemAccesses: 28672, L1Hits: 4052, L2Hits: 812, DRAMBytes: 3047424}},
		{"VGG16", ModeBWOnly, Result{Cycles: 5871.315892720343, Instructions: 172032, MemAccesses: 28672, L1Hits: 4045, L2Hits: 819, DRAMBytes: 1700992}},
		{"VGG16", ModeBuddy, Result{Cycles: 6897.871509578578, Instructions: 172032, MemAccesses: 28672, L1Hits: 4039, L2Hits: 825, DRAMBytes: 1490960, LinkReadBytes: 59520, LinkWriteBytes: 43584, MetaHits: 23314, MetaMisses: 494, BuddyAccesses: 1611}},
	}
	cfg := DefaultConfig()
	cfg.OpsPerWarp = 8
	models := map[string]*DataModel{}
	for _, p := range pins {
		b := benchmarkByName(t, p.bench)
		dm := models[p.bench]
		if dm == nil {
			dm = BuildDataModel(b, uint64(b.Footprint/64), 16384, core.FinalDesign())
			models[p.bench] = dm
		}
		got := Run(b.Trace, dm, p.mode, cfg)
		got.WallClockSeconds = 0
		if got != p.want {
			t.Errorf("%s mode %d:\n got %+v\nwant %+v", p.bench, p.mode, got, p.want)
		}
	}
}
