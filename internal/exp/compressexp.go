// Package exp computes every table and figure of the paper's evaluation as
// structured results. It is the single source of truth shared by the unit
// tests (which assert shape-level agreement with the paper), the top-level
// benchmarks (one per table/figure), and the buddysim CLI (which prints the
// same rows/series the paper reports).
package exp

import (
	"fmt"
	"strings"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gen"
	"buddy/internal/heatmap"
	"buddy/internal/memory"
	"buddy/internal/stats"
	"buddy/internal/trace"
	"buddy/internal/workloads"
)

// ---------------------------------------------------------------------------
// Tab. 1
// ---------------------------------------------------------------------------

// Table1Row is one row of Tab. 1.
type Table1Row struct {
	Name      string
	Suite     workloads.Suite
	Footprint int64
	Regions   int
}

// Table1 reproduces Tab. 1: the benchmark inventory with footprints.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, b := range workloads.Table1() {
		rows = append(rows, Table1Row{b.Name, b.Suite, b.Footprint, len(b.Regions)})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Fig. 3: optimistic compression ratio over ten snapshots
// ---------------------------------------------------------------------------

// Fig3Row holds one benchmark's series.
type Fig3Row struct {
	Name   string
	Suite  workloads.Suite
	Ratios []float64 // one per snapshot
	Mean   float64
}

// Fig3Result aggregates the figure.
type Fig3Result struct {
	Rows     []Fig3Row
	GMeanHPC float64
	GMeanDL  float64
}

// Fig3 computes the paper's Fig. 3: per-benchmark BPC compression ratio
// under the optimistic eight-size study, for each of the ten snapshots.
// Ratios are read from the shared per-snapshot index (one encode pass per
// snapshot x codec across all figures).
func Fig3(scale int) *Fig3Result {
	bpc := compress.NewBPC()
	res := &Fig3Result{}
	var hpc, dl []float64
	for _, b := range workloads.Table1() {
		row := Fig3Row{Name: b.Name, Suite: b.Suite}
		for t := 0; t < workloads.Snapshots; t++ {
			x := snapshotIndex(b, t, scale, bpc)
			row.Ratios = append(row.Ratios, x.CompressionRatio(compress.OptimisticSizes))
		}
		row.Mean = stats.Mean(row.Ratios)
		res.Rows = append(res.Rows, row)
		if b.Suite == workloads.HPC {
			hpc = append(hpc, row.Mean)
		} else {
			dl = append(dl, row.Mean)
		}
	}
	res.GMeanHPC = stats.GMean(hpc)
	res.GMeanDL = stats.GMean(dl)
	return res
}

// ---------------------------------------------------------------------------
// Sparse-activation sweep: per-codec ratio on cDMA-style activation data
// ---------------------------------------------------------------------------

// SparseZeroFracs are the sweep's activation zero fractions, the 50-90%
// range cDMA (Rhu et al.) reports for post-ReLU DL activation traffic.
var SparseZeroFracs = []float64{0.5, 0.7, 0.9}

// SparseRow holds one codec's compression-ratio series over the sweep's
// zero fractions.
type SparseRow struct {
	Codec  string
	Ratios []float64 // one per zero fraction
}

// SparseResult aggregates the sparse-activation companion study to Fig. 3.
type SparseResult struct {
	ZeroFracs []float64
	Rows      []SparseRow // one per registered codec
}

// SparseSweep measures every registered codec on synthetic fp16 activation
// pools (gen.SparseFP16) at each of SparseZeroFracs — the Fig. 3-style view
// of the data class the codecs' zero-run fast paths target. One pool is
// synthesized per zero fraction and shared across codecs, so the rows are
// directly comparable; ratios use the same optimistic eight-size rounding
// as Fig. 3.
func SparseSweep(scale int) *SparseResult {
	res := &SparseResult{ZeroFracs: SparseZeroFracs}
	snaps := make([]*memory.Snapshot, len(SparseZeroFracs))
	for i, zf := range SparseZeroFracs {
		// A 1 GB activation pool before scaling: comparable sample counts
		// to a mid-size Tab. 1 benchmark region.
		size := int(int64(1<<30) / int64(scale))
		if size < 64*memory.PageBytes {
			size = 64 * memory.PageBytes
		}
		a := memory.NewAllocation(fmt.Sprintf("activations_z%d", int(zf*100)), size)
		gen.SparseFP16{ZeroFrac: zf}.Fill(a.Data, gen.NewRNG(0xC0DA+uint64(i), 7))
		snaps[i] = &memory.Snapshot{Allocations: []*memory.Allocation{a}}
	}
	for _, c := range compress.Registry() {
		row := SparseRow{Codec: c.Name()}
		for _, s := range snaps {
			row.Ratios = append(row.Ratios, analysis.CompressionRatio(s, c, compress.OptimisticSizes))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// ---------------------------------------------------------------------------
// Fig. 5b: metadata cache hit rate vs. cache size
// ---------------------------------------------------------------------------

// Fig5bRow holds one benchmark's hit-rate curve.
type Fig5bRow struct {
	Name     string
	Suite    workloads.Suite
	SizesKB  []int
	HitRates []float64
}

// Fig5bAccesses is the number of simulated memory accesses per point.
const Fig5bAccesses = 400000

// fig5bAddressScale shrinks footprints for the address-stream study. It is
// smaller than the data-synthesis scale because no bytes are generated —
// only addresses — and hit rates depend on the footprint:cache ratio.
const fig5bAddressScale = 16

// Fig5b sweeps the total metadata cache size and measures hit rates using
// each benchmark's synthetic address stream. One 32 B metadata line covers
// 64 entries (8 KB of data), so streaming workloads hit ~63/64 regardless of
// size while scattered ones (351.palm, 355.seismic) need capacity.
func Fig5b(sizesKB []int) []Fig5bRow {
	if len(sizesKB) == 0 {
		sizesKB = []int{8, 16, 32, 64, 128, 256}
	}
	var rows []Fig5bRow
	for _, b := range workloads.Table1() {
		row := Fig5bRow{Name: b.Name, Suite: b.Suite, SizesKB: sizesKB}
		footprint := uint64(b.Footprint / fig5bAddressScale)
		for _, kb := range sizesKB {
			mc := core.NewMetadataCache(kb<<10, 8, 4)
			const warps = 64
			streams := make([]*trace.Stream, warps)
			for w := range streams {
				streams[w] = trace.NewStream(b.Trace, footprint, 42, w)
			}
			for i := 0; i < Fig5bAccesses; i++ {
				a := streams[i%warps].Next()
				mc.Access(int(a.Addr / 128))
			}
			row.HitRates = append(row.HitRates, mc.HitRate())
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Fig. 6: spatial compressibility heat-maps
// ---------------------------------------------------------------------------

// Fig6 builds the Fig. 6 heat-map for every benchmark at mid-run
// (snapshot 5), rendered straight from the shared per-snapshot index.
func Fig6(scale int) []*heatmap.Map {
	bpc := compress.NewBPC()
	var maps []*heatmap.Map
	for _, b := range workloads.Table1() {
		maps = append(maps, heatmap.FromIndex(b.Name, snapshotIndex(b, 5, scale, bpc)))
	}
	return maps
}

// ---------------------------------------------------------------------------
// Fig. 7 / Fig. 9: design-option and Buddy-Threshold sensitivity
// ---------------------------------------------------------------------------

// Mode is one (compression ratio, buddy-access fraction) operating point.
type Mode struct {
	Ratio     float64
	BuddyFrac float64
}

// Fig7Row compares the three design points for one benchmark.
type Fig7Row struct {
	Name     string
	Suite    workloads.Suite
	Naive    Mode
	PerAlloc Mode
	Final    Mode
}

// Fig7Result aggregates Fig. 7 with per-suite gmeans/means, matching the
// paper's summary numbers (naive 1.57x/8% HPC and 1.18x/32% DL; final
// 1.9x/0.08% HPC and 1.5x/4% DL).
type Fig7Result struct {
	Rows []Fig7Row
	// GMean ratios per suite and design point.
	NaiveHPC, NaiveDL       Mode
	PerAllocHPC, PerAllocDL Mode
	FinalHPC, FinalDL       Mode
}

func runProfile(b workloads.Benchmark, scale int, opt core.ProfileOptions) Mode {
	res := core.ProfileIndexes(runIndexes(b, scale, compress.NewBPC()), opt)
	return Mode{Ratio: res.CompressionRatio, BuddyFrac: res.BuddyAccessFraction}
}

// Fig7 computes the design-optimization sensitivity study.
func Fig7(scale int) *Fig7Result {
	res := &Fig7Result{}
	type agg struct{ ratios, fracs []float64 }
	sums := map[string]*agg{}
	for _, k := range []string{"nh", "nd", "ph", "pd", "fh", "fd"} {
		sums[k] = &agg{}
	}
	for _, b := range workloads.Table1() {
		row := Fig7Row{Name: b.Name, Suite: b.Suite}
		row.Naive = runProfile(b, scale, core.Naive())
		row.PerAlloc = runProfile(b, scale, core.PerAllocationOnly())
		row.Final = runProfile(b, scale, core.FinalDesign())
		res.Rows = append(res.Rows, row)
		suffix := "h"
		if b.Suite == workloads.DL {
			suffix = "d"
		}
		for prefix, m := range map[string]Mode{"n": row.Naive, "p": row.PerAlloc, "f": row.Final} {
			s := sums[prefix+suffix]
			s.ratios = append(s.ratios, m.Ratio)
			s.fracs = append(s.fracs, m.BuddyFrac)
		}
	}
	mk := func(k string) Mode {
		return Mode{Ratio: stats.GMean(sums[k].ratios), BuddyFrac: stats.Mean(sums[k].fracs)}
	}
	res.NaiveHPC, res.NaiveDL = mk("nh"), mk("nd")
	res.PerAllocHPC, res.PerAllocDL = mk("ph"), mk("pd")
	res.FinalHPC, res.FinalDL = mk("fh"), mk("fd")
	return res
}

// Fig9Row holds one benchmark's Buddy-Threshold sweep plus the
// best-achievable marker.
type Fig9Row struct {
	Name       string
	Suite      workloads.Suite
	Thresholds []float64
	Points     []Mode
	Best       float64
}

// fig9Thresholds are the Buddy Thresholds Fig. 9 sweeps (paper: 10% to
// 40%).
var fig9Thresholds = []float64{0.10, 0.20, 0.30, 0.40}

// Fig9 sweeps the Buddy Threshold over fig9Thresholds under the final
// design and reports the unconstrained best-achievable ratio.
func Fig9(scale int) []Fig9Row {
	var rows []Fig9Row
	for _, b := range workloads.Table1() {
		idx := runIndexes(b, scale, compress.NewBPC())
		row := Fig9Row{Name: b.Name, Suite: b.Suite, Thresholds: fig9Thresholds}
		for _, th := range fig9Thresholds {
			opt := core.FinalDesign()
			opt.Threshold = th
			r := core.ProfileIndexes(idx, opt)
			row.Points = append(row.Points, Mode{Ratio: r.CompressionRatio, BuddyFrac: r.BuddyAccessFraction})
			row.Best = r.BestAchievable
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Fig. 8: buddy accesses over a DL training iteration
// ---------------------------------------------------------------------------

// Fig8Point is one snapshot's measurement under fixed targets.
type Fig8Point struct {
	Snapshot  int
	Ratio     float64
	BuddyFrac float64
}

// Fig8Row is one benchmark's series.
type Fig8Row struct {
	Name   string
	Points []Fig8Point
}

// Fig8 reproduces the over-time study: targets are fixed from the profiling
// pass, then each snapshot of one training iteration is measured. The paper
// observes constant ratios (1.49x SqueezeNet, 1.64x ResNet50) and stable
// buddy-access fractions despite per-entry churn.
func Fig8(scale int) []Fig8Row {
	var rows []Fig8Row
	for _, name := range []string{"SqueezeNet", "ResNet50"} {
		b, err := workloads.ByName(name)
		if err != nil {
			panic(err) // static benchmark list; unreachable
		}
		idx := runIndexes(b, scale, compress.NewBPC())
		prof := core.ProfileIndexes(idx, core.FinalDesign())
		targets := prof.Targets()
		row := Fig8Row{Name: name}
		for t, x := range idx {
			ratio, frac := core.MeasureIndex(x, targets)
			row.Points = append(row.Points, Fig8Point{Snapshot: t, Ratio: ratio, BuddyFrac: frac})
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Rendering helpers shared by buddysim
// ---------------------------------------------------------------------------

// FormatTable renders rows of columns with a header, aligned.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
