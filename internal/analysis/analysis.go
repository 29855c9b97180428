// Package analysis builds the shared sector-class index every snapshot
// study reduces to. The paper's profiling pass (§3.3-3.4) and all of its
// capacity figures ask the same primitive question — "how many 32 B sectors
// does this 128 B entry compress to?" — so the index answers it exactly
// once per entry: Build sizes a snapshot across a GOMAXPROCS-bounded
// worker pool and records, per entry, the sector class, the exact
// compressed byte size and an all-zero flag (BuildRun goes further and
// sizes an allocation once per run while its bytes do not change).
// Histograms, zero fractions, per-page rollups and class-rounded
// compression ratios are then cheap lookups, and every consumer (compression-ratio studies, sector
// histograms, heat-maps, the profiler, compress-point selection, the
// figure sweeps) shares one index per snapshot x codec instead of
// re-encoding the data.
package analysis

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
	"buddy/internal/memory"
)

// EntryBytes and PageBytes mirror the memory-layout constants.
const (
	EntryBytes     = memory.EntryBytes
	PageBytes      = memory.PageBytes
	EntriesPerPage = memory.EntriesPerPage
)

// zeroFlag marks an all-zero entry in the packed class byte; the low three
// bits hold the sector class (0..4).
const (
	classMask = 0x07
	zeroFlag  = 0x08
)

// AllocIndex is one allocation's per-entry compressibility record. It is
// immutable once built: BuildRun hands one AllocIndex to every snapshot of
// the run in which the allocation holds the same bytes.
type AllocIndex struct {
	// Name of the allocation.
	Name string

	// class packs the 32 B sector class (low 3 bits, 0..4) and the
	// all-zero flag per entry.
	class []uint8
	// size is the exact compressed payload size in bytes (0..128), the
	// input to arbitrary size-class rounding (Fig. 3's eight-size study).
	size []uint8

	hist        [5]int  // cached sector-class histogram
	zeroEntries int     // cached count of all-zero entries
	pageMax     []uint8 // cached per-8KB-page max sector class
}

// Entries returns the allocation's entry count.
func (a *AllocIndex) Entries() int { return len(a.class) }

// SectorClass returns entry i's compressed 32 B sector count (0..4); 0 is
// the zero-page class (<= 8 B including framing, §3.4).
func (a *AllocIndex) SectorClass(i int) int { return int(a.class[i] & classMask) }

// Zero reports whether entry i is entirely zero bytes.
func (a *AllocIndex) Zero(i int) bool { return a.class[i]&zeroFlag != 0 }

// Size returns entry i's exact compressed payload size in bytes (0..128).
func (a *AllocIndex) Size(i int) int { return int(a.size[i]) }

// SectorHistogram returns the cached count of entries per sector class;
// index 0 is the zero-page class — the per-allocation histogram the
// profiler consumes (§3.4 "histogram of the static memory snapshots").
func (a *AllocIndex) SectorHistogram() [5]int { return a.hist }

// ZeroPageFrac is the fraction of entries in the zero-page sector class
// (class 0) — the 16x-eligibility statistic of §3.4.
func (a *AllocIndex) ZeroPageFrac() float64 {
	if len(a.class) == 0 {
		return 0
	}
	return float64(a.hist[0]) / float64(len(a.class))
}

// ZeroEntryFrac is the fraction of entries that are entirely zero bytes.
// It is codec-independent, unlike ZeroPageFrac, and neither bounds the
// other: most codecs put all-zero entries in class 0, but e.g. FVC encodes
// one to a full dictionary stream (class 1), while near-zero entries can
// reach class 0 without being all-zero.
func (a *AllocIndex) ZeroEntryFrac() float64 {
	if len(a.class) == 0 {
		return 0
	}
	return float64(a.zeroEntries) / float64(len(a.class))
}

// PageMax returns the cached per-page rollup: the maximum (least
// compressible) sector class within each 8 KB page, in page order. The
// final partial page, if any, rolls up its present entries.
func (a *AllocIndex) PageMax() []uint8 { return a.pageMax }

// Index is one snapshot's sector-class index under one codec.
type Index struct {
	// Codec names the algorithm the index was built with.
	Codec string
	// Allocs holds per-allocation indexes in snapshot order.
	Allocs []*AllocIndex

	hist    [5]int
	entries int
	zeros   int
}

// Entries returns the total entry count across allocations.
func (x *Index) Entries() int { return x.entries }

// SectorHistogram returns the snapshot-wide sector-class histogram.
func (x *Index) SectorHistogram() [5]int { return x.hist }

// ZeroEntries returns the snapshot-wide count of all-zero entries.
func (x *Index) ZeroEntries() int { return x.zeros }

// Find returns the index of the named allocation, or nil.
func (x *Index) Find(name string) *AllocIndex {
	for _, a := range x.Allocs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// buildGrain is the entry span a worker claims with one atomic add: sizing
// an entry costs on the order of 100 ns, so a grain is a few tens of
// microseconds — enough to amortize the claim while keeping the tail
// balanced.
const buildGrain = 512

// buildTask is one contiguous span of one allocation's entries.
type buildTask struct {
	a      *memory.Allocation
	idx    *AllocIndex
	lo, hi int
}

// Build sizes every entry of s exactly once under codec c and returns the
// snapshot's sector-class index. The sizing work fans out across a
// GOMAXPROCS-bounded worker pool (each worker owns one compress.Sizer, so
// the codec scratch never crosses goroutines); small snapshots run inline.
// Like the driver's bulk data path, c must be safe for concurrent use —
// all built-in codecs are stateless and qualify.
func Build(s *memory.Snapshot, c compress.Codec) *Index {
	return build(s, c, nil, nil)
}

// build is Build with the run's previous snapshot and its index at hand
// (nil for the first): an allocation that kept its name and its bytes takes
// the previous AllocIndex as is and is neither sized nor summarized again.
// bytes.Equal returns at once on pointer-equal slices (a shared static
// allocation) and within the first bytes of a region that churned.
func build(s *memory.Snapshot, c compress.Codec, prev *memory.Snapshot, prevIdx *Index) *Index {
	x := &Index{Codec: c.Name()}
	var tasks []buildTask
	var fresh []*AllocIndex
	for j, a := range s.Allocations {
		if prev != nil && j < len(prev.Allocations) {
			if p := prev.Allocations[j]; p.Name == a.Name && bytes.Equal(p.Data, a.Data) {
				x.Allocs = append(x.Allocs, prevIdx.Allocs[j])
				continue
			}
		}
		n := a.Entries()
		ai := &AllocIndex{
			Name:    a.Name,
			class:   make([]uint8, n),
			size:    make([]uint8, n),
			pageMax: make([]uint8, (n+EntriesPerPage-1)/EntriesPerPage),
		}
		x.Allocs = append(x.Allocs, ai)
		fresh = append(fresh, ai)
		for lo := 0; lo < n; lo += buildGrain {
			tasks = append(tasks, buildTask{a: a, idx: ai, lo: lo, hi: min(lo+buildGrain, n)})
		}
	}

	workers := min(runtime.GOMAXPROCS(0), len(tasks))
	if workers <= 1 {
		sz := compress.NewSizer(c)
		for _, t := range tasks {
			classify(t, sz)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sz := compress.NewSizer(c)
				for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
					classify(tasks[i], sz)
				}
			}()
		}
		wg.Wait()
	}

	for _, ai := range fresh {
		ai.summarize()
	}
	for _, ai := range x.Allocs {
		x.entries += ai.Entries()
		for cl, n := range ai.hist {
			x.hist[cl] += n
		}
		x.zeros += ai.zeroEntries
	}
	return x
}

// classify fills one task's span: one sizing per entry yields the exact
// bit count, from which the sector class and byte size both derive. The
// all-zero probe runs first and answers both the zero flag and (via the
// Sizer's precomputed zero-entry size) the bit count, so zero-dominated
// snapshots never enter a codec.
func classify(t buildTask, sz *compress.Sizer) {
	for i := t.lo; i < t.hi; i++ {
		e := t.a.Entry(i)
		var bits int
		var cl uint8
		if compress.EntryAllZero(e) {
			bits = sz.ZeroBits()
			cl = uint8(compress.SectorsForBits(bits)) | zeroFlag
		} else {
			bits = sz.Bits(e)
			cl = uint8(compress.SectorsForBits(bits))
		}
		t.idx.class[i] = cl
		t.idx.size[i] = uint8((bits + 7) / 8)
	}
}

// summarize computes the cached histogram, zero count and per-page rollup
// from the filled class array.
func (a *AllocIndex) summarize() {
	for i, c := range a.class {
		cl := c & classMask
		a.hist[cl]++
		if c&zeroFlag != 0 {
			a.zeroEntries++
		}
		if p := i / EntriesPerPage; cl > a.pageMax[p] {
			a.pageMax[p] = cl
		}
	}
}

// BuildRun indexes every snapshot of a run under codec c, sizing each
// distinct allocation once: where snapshot t holds an allocation with the
// same name and bytes as snapshot t-1 (static weights and grids — most of a
// run), the two indexes share one AllocIndex. Each Index still carries its
// own snapshot-wide totals, and the result equals a per-snapshot Build.
func BuildRun(snaps []*memory.Snapshot, c compress.Codec) []*Index {
	out := make([]*Index, len(snaps))
	var prev *memory.Snapshot
	var prevIdx *Index
	for i, s := range snaps {
		out[i] = build(s, c, prev, prevIdx)
		prev, prevIdx = s, out[i]
	}
	return out
}

// CompressionRatio measures the snapshot's capacity compression ratio
// under the given size classes, mirroring the paper's Fig. 3 methodology:
// each entry's exact compressed size is rounded up to a class and the
// ratio is original bytes over the sum of class sizes. All-zero entries
// take the 0 B class when it is available. An empty snapshot reports 1
// (nothing stored, nothing saved); a snapshot whose every entry lands in
// the 0 B class is bounded by the total original size.
func (x *Index) CompressionRatio(classes []int) float64 {
	if x.entries == 0 {
		return 1
	}
	// Sizes span 0..128: precompute the class rounding once per call
	// instead of once per entry.
	var round [EntryBytes + 1]int
	for s := range round {
		round[s] = compress.RoundToClass(s, classes)
	}
	zeroClass := len(classes) > 0 && classes[0] == 0
	var comp int
	for _, a := range x.Allocs {
		for i, sz := range a.size {
			if zeroClass && sz <= 1 && a.class[i]&zeroFlag != 0 {
				continue
			}
			comp += round[sz]
		}
	}
	orig := x.entries * EntryBytes
	if comp == 0 {
		return float64(orig)
	}
	return float64(orig) / float64(comp)
}

// CompressionRatio is the one-shot convenience over Build: prefer holding
// the Index when more than one statistic is needed from the same snapshot.
func CompressionRatio(s *memory.Snapshot, c compress.Codec, classes []int) float64 {
	return Build(s, c).CompressionRatio(classes)
}

// SectorHistogram is the one-shot per-allocation histogram convenience.
func SectorHistogram(a *memory.Allocation, c compress.Codec) [5]int {
	s := &memory.Snapshot{Allocations: []*memory.Allocation{a}}
	return Build(s, c).Allocs[0].SectorHistogram()
}
