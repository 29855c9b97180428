package buddy

import (
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gpusim"
	"buddy/internal/memory"
	"buddy/internal/stats"
	"buddy/internal/workloads"
)

// Ablations for the design choices DESIGN.md calls out: the compression
// algorithm (§2.4), the metadata cache size (Fig. 5), the decompression
// latency assumption (§4.1), and the Buddy Threshold (Fig. 9, covered by
// BenchmarkFig9). Each reports its metric so `go test -bench Ablation`
// prints the ablation table.

// BenchmarkAblationAlgorithm recomputes the Fig. 3 capacity study with each
// implemented algorithm, validating the paper's choice of BPC: its gmean
// ratio should lead on both suites.
func BenchmarkAblationAlgorithm(b *testing.B) {
	for _, c := range compress.Registry() {
		b.Run(c.Name(), func(b *testing.B) {
			var hpc, dl []float64
			for i := 0; i < b.N; i++ {
				hpc, dl = hpc[:0], dl[:0]
				for _, bench := range workloads.Table1() {
					s := workloads.GenerateSnapshot(bench, 5, 16384)
					r := analysis.CompressionRatio(s, c, compress.OptimisticSizes)
					if bench.Suite == workloads.HPC {
						hpc = append(hpc, r)
					} else {
						dl = append(dl, r)
					}
				}
			}
			b.ReportMetric(stats.GMean(hpc), "gmeanHPC")
			b.ReportMetric(stats.GMean(dl), "gmeanDL")
		})
	}
}

// BenchmarkAblationMetadataCache sweeps the per-slice metadata cache size
// on the metadata-heavy 351.palm under full Buddy mode.
func BenchmarkAblationMetadataCache(b *testing.B) {
	bench, err := workloads.ByName("351.palm")
	if err != nil {
		b.Fatal(err)
	}
	fp := uint64(bench.Footprint / 16)
	dm := gpusim.BuildDataModel(bench, fp, 16384, core.FinalDesign())
	for _, kb := range []int{1, 4, 16} {
		b.Run(byteSize(kb), func(b *testing.B) {
			cfg := gpusim.DefaultConfig()
			cfg.OpsPerWarp = 32
			cfg.MetaCacheBytesPerSlice = kb << 10
			var r gpusim.Result
			for i := 0; i < b.N; i++ {
				r = gpusim.Run(bench.Trace, dm, gpusim.ModeBuddy, cfg)
			}
			b.ReportMetric(r.Cycles, "cycles")
			b.ReportMetric(float64(r.MetaMisses)/float64(r.MetaHits+r.MetaMisses), "metaMissRate")
		})
	}
}

// BenchmarkAblationDecompressionLatency sweeps the (de)compression latency
// on latency-sensitive FF_Lulesh under bandwidth-only compression,
// quantifying the +11-DRAM-cycle assumption's impact (§4.2).
func BenchmarkAblationDecompressionLatency(b *testing.B) {
	bench, err := workloads.ByName("FF_Lulesh")
	if err != nil {
		b.Fatal(err)
	}
	fp := uint64(bench.Footprint / 16)
	dm := gpusim.BuildDataModel(bench, fp, 16384, core.FinalDesign())
	for _, lat := range []float64{0, 16, 48} {
		b.Run(cyc(lat), func(b *testing.B) {
			cfg := gpusim.DefaultConfig()
			cfg.OpsPerWarp = 32
			cfg.DecompressLatencyCycles = lat
			var r gpusim.Result
			for i := 0; i < b.N; i++ {
				r = gpusim.Run(bench.Trace, dm, gpusim.ModeBWOnly, cfg)
			}
			b.ReportMetric(r.Cycles, "cycles")
		})
	}
}

// BenchmarkAblationBuddyThresholdExtremes contrasts the final design's 30%
// threshold with the extremes on the threshold-sensitive FF_HPGMG (§3.4:
// it needs >80% to capture its striped compressibility).
func BenchmarkAblationBuddyThresholdExtremes(b *testing.B) {
	bench, err := workloads.ByName("FF_HPGMG")
	if err != nil {
		b.Fatal(err)
	}
	snaps := workloads.GenerateRun(bench, 16384)
	for _, th := range []float64{0.10, 0.30, 0.85} {
		b.Run(pct(th), func(b *testing.B) {
			opt := core.FinalDesign()
			opt.Threshold = th
			var res *core.ProfileResult
			for i := 0; i < b.N; i++ {
				res = core.Profile(snaps, compress.NewBPC(), opt)
			}
			b.ReportMetric(res.CompressionRatio, "ratio")
			b.ReportMetric(res.BuddyAccessFraction*100, "buddy%")
		})
	}
}

// BenchmarkAblationReprofile measures the checkpoint-time re-profiling
// extension (§3.4) on the drifting 355.seismic: the plan's migration cost
// versus the buddy-access reduction it buys, planned live from a device
// loaded at the first dump's targets and holding the last dump's data.
func BenchmarkAblationReprofile(b *testing.B) {
	bench, err := workloads.ByName("355.seismic")
	if err != nil {
		b.Fatal(err)
	}
	early := workloads.GenerateSnapshot(bench, 0, 16384)
	late := workloads.GenerateSnapshot(bench, 9, 16384)
	initial := core.Profile([]*memory.Snapshot{early}, compress.NewBPC(), core.FinalDesign())
	dev := New(WithDeviceBytes(2 * int64(early.TotalBytes())))
	allocs, err := LoadSnapshot(dev, early, initial.Targets())
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range allocs {
		if _, err := a.WriteAt(late.Find(a.Name).Data, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var plan *core.ReprofilePlan
	for i := 0; i < b.N; i++ {
		plan = core.PlanReprofile(allocs, core.FinalDesign())
	}
	b.ReportMetric(plan.BuddyFracBefore*100, "staleBuddy%")
	b.ReportMetric(plan.BuddyFracAfter*100, "freshBuddy%")
	b.ReportMetric(float64(plan.TotalMigrationBytes), "migrationB")
}

func byteSize(kb int) string {
	switch kb {
	case 1:
		return "1KB-per-slice"
	case 4:
		return "4KB-per-slice"
	default:
		return "16KB-per-slice"
	}
}

func cyc(lat float64) string {
	switch lat {
	case 0:
		return "0cycles"
	case 16:
		return "16cycles"
	default:
		return "48cycles"
	}
}

func pct(th float64) string {
	switch th {
	case 0.10:
		return "10pct"
	case 0.30:
		return "30pct"
	default:
		return "85pct"
	}
}

// buddyStorages are the Fig. 2 buddy-storage alternatives reachable over the
// interconnect. "As long as the remote memory sources operate at the full
// NVLink2 bandwidth, Buddy Compression applies equally well" (§2.3): they
// differ only in access latency, given here in core cycles.
var buddyStorages = []struct {
	name    string
	latency float64
}{
	{"host-cpu", 700},      // NVLink-attached host memory (Power9-class), the paper's target system
	{"peer-gpu", 550},      // a peer GPU's HBM2 one NVSwitch hop away
	{"disaggregated", 900}, // a memory appliance on the switch fabric: the longest path
}

// BenchmarkAblationBuddyStorage compares the buddy-storage alternatives on
// the buddy-access-heavy SqueezeNet at equal link bandwidth.
func BenchmarkAblationBuddyStorage(b *testing.B) {
	bench, err := workloads.ByName("SqueezeNet")
	if err != nil {
		b.Fatal(err)
	}
	fp := uint64(bench.Footprint / 16)
	dm := gpusim.BuildDataModel(bench, fp, 16384, core.FinalDesign())
	for _, s := range buddyStorages {
		b.Run(s.name, func(b *testing.B) {
			cfg := gpusim.DefaultConfig()
			cfg.OpsPerWarp = 32
			cfg.Link.LatencyCycles = s.latency
			var r gpusim.Result
			for i := 0; i < b.N; i++ {
				r = gpusim.Run(bench.Trace, dm, gpusim.ModeBuddy, cfg)
			}
			b.ReportMetric(r.Cycles, "cycles")
		})
	}
}
