package gpusim

import (
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/workloads"
)

// DataModel gives the simulator a statistical view of a benchmark's
// compressed memory image: for any line address it answers "how many
// sectors does this 128 B entry compress to, and what is its allocation's
// target ratio?". It is built from the same profiling pass and synthesized
// snapshots as the compression studies, so the timing results and the
// Fig. 7 statistics are mutually consistent without carrying gigabytes of
// synthesized bytes through the timing loop.
type DataModel struct {
	regions   []dmRegion
	footprint uint64
}

type dmRegion struct {
	start, end uint64
	target     core.TargetRatio
	cdf        [5]float64 // cumulative distribution of sector counts 0..4
}

// BuildDataModel profiles benchmark b (at the given synthesis scale) and
// lays its allocations across footprint bytes of simulated address space in
// region order. Callers that already hold a profiling result — e.g. the
// Fig. 11 sweep, whose snapshot indexes are shared with the compression
// figures — use DataModelFromProfile instead.
func BuildDataModel(b workloads.Benchmark, footprint uint64, scale int, opt core.ProfileOptions) *DataModel {
	snaps := workloads.GenerateRun(b, scale)
	return DataModelFromProfile(b, footprint, core.Profile(snaps, compress.NewBPC(), opt))
}

// DataModelFromProfile lays benchmark b's allocations across footprint
// bytes of simulated address space using an existing profiling result's
// targets and sector histograms.
func DataModelFromProfile(b workloads.Benchmark, footprint uint64, prof *core.ProfileResult) *DataModel {
	targets := prof.Targets()

	hist := map[string][5]int{}
	for _, p := range prof.Allocations {
		hist[p.Name] = p.Hist
	}

	dm := &DataModel{footprint: footprint &^ 127}
	var cursor uint64
	for _, r := range b.Regions {
		size := uint64(float64(dm.footprint)*r.Frac) &^ 127
		h := hist[r.Name]
		var total float64
		for _, n := range h {
			total += float64(n)
		}
		reg := dmRegion{start: cursor, end: cursor + size, target: targets[r.Name]}
		var c float64
		for s := 0; s < 5; s++ {
			if total > 0 {
				c += float64(h[s]) / total
			} else if s == 4 {
				c = 1
			}
			reg.cdf[s] = c
		}
		dm.regions = append(dm.regions, reg)
		cursor += size
	}
	if len(dm.regions) > 0 {
		dm.regions[len(dm.regions)-1].end = dm.footprint
	}
	return dm
}

// UncompressedModel returns a model where every entry is raw (the ideal
// baseline's view).
func UncompressedModel(footprint uint64) *DataModel {
	dm := &DataModel{footprint: footprint &^ 127}
	dm.regions = []dmRegion{{
		start: 0, end: dm.footprint, target: core.Target1x,
		cdf: [5]float64{0, 0, 0, 0, 1},
	}}
	return dm
}

// splitmix64 hashes an entry index into a reproducible uniform sample, so a
// given address always reports the same compressed size within a run.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Lookup returns the compressed sector count (0..4) and target ratio of the
// entry containing addr.
func (m *DataModel) Lookup(addr uint64) (sectors int, target core.TargetRatio) {
	if m.footprint == 0 {
		return 4, core.Target1x
	}
	addr %= m.footprint
	// Few regions per benchmark: linear scan is cache-friendly and fast.
	reg := &m.regions[len(m.regions)-1]
	for i := range m.regions {
		if addr < m.regions[i].end {
			reg = &m.regions[i]
			break
		}
	}
	u := float64(splitmix64(addr>>7)>>11) / (1 << 53)
	for s := 0; s < 5; s++ {
		if u < reg.cdf[s] {
			return s, reg.target
		}
	}
	return 4, reg.target
}
