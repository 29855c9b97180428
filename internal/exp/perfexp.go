package exp

import (
	"fmt"
	"math"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/gpusim"
	"buddy/internal/stats"
	"buddy/internal/workloads"
)

// fig11AddressScale shrinks footprints for simulated addressing, like the
// Fig. 5b study; cache-to-footprint ratios stay far beyond L2 capacity.
const fig11AddressScale = 16

// ScaledSimConfig returns Tab. 2's configuration with the simulated trace
// length scaled to frac of the default. The machine geometry, bandwidths
// and cache sizes stay at their Tab. 2 values: trace length is the only
// knob that shortens simulation without disturbing the compute, bandwidth
// and latency-hiding balance (all three floors scale linearly with it).
func ScaledSimConfig(frac float64) gpusim.Config {
	cfg := gpusim.DefaultConfig()
	if frac >= 1 {
		return cfg
	}
	ops := int(float64(cfg.OpsPerWarp) * frac)
	if ops < 24 {
		ops = 24
	}
	cfg.OpsPerWarp = ops
	return cfg
}

// Tab2 renders the simulation parameters (the paper's Tab. 2).
func Tab2() string {
	hbm, cfg := dram.DefaultConfig(), gpusim.DefaultConfig()
	rows := [][]string{
		{"Core", fmt.Sprintf("%.1f GHz; greedy-then-oldest scheduling; %d SMs; %d warps/SM",
			hbm.CoreClockGHz, gpusim.SMs, gpusim.WarpsPerSM)},
		{"L1", fmt.Sprintf("%d KB private per SM, 128 B lines, %d-way", gpusim.L1Bytes>>10, gpusim.L1Ways)},
		{"L2", fmt.Sprintf("%d MB shared, %d slices, 128 B lines, %d ways, sectored",
			gpusim.L2Bytes>>20, gpusim.L2Slices, gpusim.L2Ways)},
		{"Off-chip", fmt.Sprintf("%d HBM2 channels (%.0f GB/s); NVLink %.0f GB/s full-duplex",
			hbm.Channels, hbm.BandwidthGBs, cfg.Link.BandwidthGBs)},
		{"Buddy", fmt.Sprintf("%d KB metadata cache per L2 slice, %d-way; +%.0f cycles (de)compression",
			cfg.MetaCacheBytesPerSlice>>10, gpusim.MetaCacheWays, cfg.DecompressLatencyCycles)},
	}
	return FormatTable([]string{"Component", "Configuration"}, rows)
}

// ---------------------------------------------------------------------------
// Fig. 11: performance relative to an ideal large-memory GPU
// ---------------------------------------------------------------------------

// Fig11Row is one benchmark's relative-performance results (1.0 = ideal
// large-memory GPU with a 150 GB/s link).
type Fig11Row struct {
	Name   string
	Suite  workloads.Suite
	BWOnly float64
	// Buddy[i] is relative performance with link bandwidth Links[i].
	Buddy []float64
	// BuddyAccessShare is the fraction of memory accesses that touched
	// buddy memory at the NVLink2 point (cross-check against Fig. 7).
	BuddyAccessShare float64
}

// Fig11Result aggregates the sweep.
type Fig11Result struct {
	Links []float64
	Rows  []Fig11Row
	// Geometric means over all benchmarks, as the paper summarizes.
	GMeanBWOnly float64
	GMeanBuddy  []float64
	GMeanHPC150 float64
	GMeanDL150  float64
}

// fig11Links are the buddy-link bandwidths in GB/s Fig. 11 sweeps; 150 is
// NVLink2, the point the per-suite means quote.
var fig11Links = []float64{50, 100, 150, 200}

// Fig11 runs the performance study: bandwidth-only compression and Buddy
// Compression across link bandwidths, each normalized to the uncompressed
// ideal GPU at 150 GB/s.
func Fig11(scale int, cfg gpusim.Config) *Fig11Result {
	res := &Fig11Result{Links: fig11Links}
	var allBW []float64
	allBuddy := make([][]float64, len(fig11Links))
	var hpc150, dl150 []float64

	for _, b := range workloads.Table1() {
		footprint := uint64(b.Footprint / fig11AddressScale)
		// Profile from the shared snapshot indexes (one encode pass per
		// snapshot x codec across all figures) instead of re-encoding.
		prof := core.ProfileIndexes(runIndexes(b, scale, compress.NewBPC()), core.FinalDesign())
		dm := gpusim.DataModelFromProfile(b, footprint, prof)
		ideal := gpusim.UncompressedModel(footprint)

		base := gpusim.Run(b.Trace, ideal, gpusim.ModeIdeal, cfg)
		bw := gpusim.Run(b.Trace, dm, gpusim.ModeBWOnly, cfg)
		row := Fig11Row{Name: b.Name, Suite: b.Suite, BWOnly: base.Cycles / bw.Cycles}
		for i, link := range fig11Links {
			r := gpusim.Run(b.Trace, dm, gpusim.ModeBuddy, cfg.WithLinkBandwidth(link))
			rel := base.Cycles / r.Cycles
			row.Buddy = append(row.Buddy, rel)
			allBuddy[i] = append(allBuddy[i], rel)
			if link == 150 {
				row.BuddyAccessShare = float64(r.BuddyAccesses) / float64(r.MemAccesses)
				if b.Suite == workloads.HPC {
					hpc150 = append(hpc150, rel)
				} else {
					dl150 = append(dl150, rel)
				}
			}
		}
		allBW = append(allBW, row.BWOnly)
		res.Rows = append(res.Rows, row)
	}
	res.GMeanBWOnly = stats.GMean(allBW)
	for _, v := range allBuddy {
		res.GMeanBuddy = append(res.GMeanBuddy, stats.GMean(v))
	}
	res.GMeanHPC150 = stats.GMean(hpc150)
	res.GMeanDL150 = stats.GMean(dl150)
	return res
}

// ---------------------------------------------------------------------------
// Fig. 10: simulator validation (correlation + speed)
// ---------------------------------------------------------------------------

// Fig10Point pairs the fast simulator's cycles with the silicon stand-in
// (analytical reference) for one benchmark/size combination.
type Fig10Point struct {
	Name       string
	OpsPerWarp int
	SimCycles  float64
	RefCycles  float64
}

// Fig10Result summarizes the validation study.
type Fig10Result struct {
	Points []Fig10Point
	// CorrelationLog is the Pearson correlation of log10(cycles) between
	// the fast simulator and the reference (paper: 0.989 vs silicon).
	CorrelationLog float64
	// FastWallSeconds and DetailedWallSeconds compare simulation speed on
	// an identical workload; SpeedupVsDetailed is their ratio (paper: two
	// orders of magnitude vs GPGPU-Sim).
	FastWallSeconds     float64
	DetailedWallSeconds float64
	SpeedupVsDetailed   float64
	// DetailedAgreement is fast/detailed cycle ratio on that workload
	// (should be near 1: both model the same machine).
	DetailedAgreement float64
}

// Fig10 runs the validation study on the given machine configuration.
func Fig10(scale int, cfg gpusim.Config) *Fig10Result {
	res := &Fig10Result{}
	var logSim, logRef []float64
	for _, b := range workloads.Table1() {
		footprint := uint64(b.Footprint / fig11AddressScale)
		dm := gpusim.UncompressedModel(footprint)
		for _, ops := range []int{cfg.OpsPerWarp / 4, cfg.OpsPerWarp, cfg.OpsPerWarp * 4} {
			c := cfg
			c.OpsPerWarp = ops
			r := gpusim.Run(b.Trace, dm, gpusim.ModeIdeal, c)
			ref := gpusim.Analytic(b.Trace, dm, c)
			res.Points = append(res.Points, Fig10Point{b.Name, ops, r.Cycles, ref})
			logSim = append(logSim, math.Log10(r.Cycles))
			logRef = append(logRef, math.Log10(ref))
		}
	}
	if corr, err := stats.Pearson(logSim, logRef); err == nil {
		res.CorrelationLog = corr
	}

	// Speed comparison on one representative benchmark with a small run.
	b, err := workloads.ByName("356.sp")
	if err != nil {
		panic(err) // static list
	}
	small := cfg
	small.OpsPerWarp = cfg.OpsPerWarp / 4
	dm := gpusim.UncompressedModel(uint64(b.Footprint / fig11AddressScale))
	fast := gpusim.Run(b.Trace, dm, gpusim.ModeIdeal, small)
	det := gpusim.RunDetailed(b.Trace, dm, gpusim.ModeIdeal, small)
	for rep := 1; rep < 3; rep++ { // deterministic runs: the fastest of three spares a neighbour's burst
		fast.WallClockSeconds = min(fast.WallClockSeconds, gpusim.Run(b.Trace, dm, gpusim.ModeIdeal, small).WallClockSeconds)
		det.WallClockSeconds = min(det.WallClockSeconds, gpusim.RunDetailed(b.Trace, dm, gpusim.ModeIdeal, small).WallClockSeconds)
	}
	res.FastWallSeconds = fast.WallClockSeconds
	res.DetailedWallSeconds = det.WallClockSeconds
	if fast.WallClockSeconds > 0 {
		res.SpeedupVsDetailed = det.WallClockSeconds / fast.WallClockSeconds
	}
	if det.Cycles > 0 {
		res.DetailedAgreement = fast.Cycles / det.Cycles
	}
	return res
}
