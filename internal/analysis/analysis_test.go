package analysis

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/memory"
)

// testGens spans the structural space the codecs care about: zeros, ramps,
// noisy numerics, raw random, sparse and quantized weights, and the striped
// mix that produces partial-page and mixed-class layouts.
func testGens() []gen.Generator {
	return []gen.Generator{
		gen.Zeros{},
		gen.Ramp{Start: -100, Step: 3},
		gen.Noisy32{NoiseBits: 4, SmoothStep: 17},
		gen.Noisy64{NoiseBits: 8, HiStep: 2},
		gen.Random{},
		gen.Sparse32{Density: 0.4, Sigma: 1},
		gen.Weights32{Sigma: 0.02, QuantBits: 12},
		gen.Stripe{A: gen.Zeros{}, B: gen.Random{}, PeriodEntries: 8, AEntries: 4},
	}
}

// testSnapshot synthesizes a multi-allocation snapshot covering every
// generator shape, sized to force the parallel build path.
func testSnapshot(entriesPerAlloc int, seed uint64) *memory.Snapshot {
	s := &memory.Snapshot{}
	for gi, g := range testGens() {
		a := memory.NewAllocation(g.Name(), entriesPerAlloc*memory.EntryBytes)
		g.Fill(a.Data, gen.NewRNG(seed+uint64(gi)*31, 7))
		s.Allocations = append(s.Allocations, a)
	}
	return s
}

// TestIndexMatchesDirectSizing is the cross-check the index's correctness
// rests on: for every registered codec, over random and generator-shaped
// inputs, the indexed sector class, byte size and zero flag must equal what
// compress.Sizer / SectorsForBits report entry for entry.
func TestIndexMatchesDirectSizing(t *testing.T) {
	s := testSnapshot(3*EntriesPerPage+17, 5) // odd count: partial final page
	for _, c := range compress.Registry() {
		x := Build(s, c)
		if x.Codec != c.Name() {
			t.Fatalf("index codec = %q, want %q", x.Codec, c.Name())
		}
		sz := compress.NewSizer(c)
		for ai, a := range s.Allocations {
			idx := x.Allocs[ai]
			if idx.Name != a.Name || idx.Entries() != a.Entries() {
				t.Fatalf("%s: allocation mismatch %q/%d vs %q/%d",
					c.Name(), idx.Name, idx.Entries(), a.Name, a.Entries())
			}
			for i := 0; i < a.Entries(); i++ {
				e := a.Entry(i)
				bits := sz.Bits(e)
				if got, want := idx.SectorClass(i), compress.SectorsForBits(bits); got != want {
					t.Fatalf("%s/%s entry %d: class %d, want %d", c.Name(), a.Name, i, got, want)
				}
				if got, want := idx.Size(i), (bits+7)/8; got != want {
					t.Fatalf("%s/%s entry %d: size %d, want %d", c.Name(), a.Name, i, got, want)
				}
				if got, want := idx.Zero(i), allZero(e); got != want {
					t.Fatalf("%s/%s entry %d: zero flag %v, want %v", c.Name(), a.Name, i, got, want)
				}
			}
		}
	}
}

func allZero(e []byte) bool {
	for _, b := range e {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestIndexCachedAggregates pins the cached histogram, zero count and
// per-page rollup against recomputation from the per-entry classes.
func TestIndexCachedAggregates(t *testing.T) {
	s := testSnapshot(2*EntriesPerPage+9, 11)
	x := Build(s, compress.NewBPC())
	var total [5]int
	var zeros int
	for _, a := range x.Allocs {
		var hist [5]int
		var pageMax []uint8
		for i := 0; i < a.Entries(); i++ {
			cl := a.SectorClass(i)
			hist[cl]++
			if a.Zero(i) {
				zeros++
			}
			if p := i / EntriesPerPage; p == len(pageMax) {
				pageMax = append(pageMax, uint8(cl))
			} else if uint8(cl) > pageMax[p] {
				pageMax[p] = uint8(cl)
			}
		}
		if a.SectorHistogram() != hist {
			t.Errorf("%s: cached histogram %v, recomputed %v", a.Name, a.SectorHistogram(), hist)
		}
		if got := a.PageMax(); len(got) != len(pageMax) {
			t.Errorf("%s: page rollup length %d, want %d", a.Name, len(got), len(pageMax))
		} else {
			for p := range got {
				if got[p] != pageMax[p] {
					t.Errorf("%s: page %d rollup %d, want %d", a.Name, p, got[p], pageMax[p])
				}
			}
		}
		for cl, n := range hist {
			total[cl] += n
		}
	}
	if x.SectorHistogram() != total {
		t.Errorf("snapshot histogram %v, want %v", x.SectorHistogram(), total)
	}
	if x.ZeroEntries() != zeros {
		t.Errorf("snapshot zero entries %d, want %d", x.ZeroEntries(), zeros)
	}
	if x.Find("zeros") == nil || x.Find("no-such") != nil {
		t.Error("Find broken")
	}
	zf := x.Find("zeros")
	if zf.ZeroPageFrac() != 1 || zf.ZeroEntryFrac() != 1 {
		t.Errorf("all-zero allocation fracs = %.2f/%.2f, want 1/1",
			zf.ZeroPageFrac(), zf.ZeroEntryFrac())
	}
}

// ratioReference recomputes CompressionRatio the pre-index way: one Sizer
// pass, per-entry class rounding.
func ratioReference(s *memory.Snapshot, c compress.Codec, classes []int) float64 {
	var orig, comp int
	zeroClass := len(classes) > 0 && classes[0] == 0
	sz := compress.NewSizer(c)
	for _, a := range s.Allocations {
		for i := 0; i < a.Entries(); i++ {
			e := a.Entry(i)
			orig += EntryBytes
			size := sz.Bytes(e)
			if zeroClass && size <= 1 && allZero(e) {
				continue
			}
			comp += compress.RoundToClass(size, classes)
		}
	}
	if orig == 0 {
		return 1
	}
	if comp == 0 {
		return float64(orig)
	}
	return float64(orig) / float64(comp)
}

// TestCompressionRatioMatchesReference checks the index-backed ratio
// against the direct per-entry computation for both class sets and every
// registered codec.
func TestCompressionRatioMatchesReference(t *testing.T) {
	s := testSnapshot(EntriesPerPage+3, 23)
	for _, c := range compress.Registry() {
		x := Build(s, c)
		for _, classes := range [][]int{compress.OptimisticSizes, compress.SectorSizes} {
			got := x.CompressionRatio(classes)
			want := ratioReference(s, c, classes)
			if got != want {
				t.Errorf("%s classes %v: ratio %.6f, want %.6f", c.Name(), classes, got, want)
			}
		}
	}
}

// TestCompressionRatioBounds carries over the pre-refactor sanity bounds:
// all-zero snapshots compress enormously, random data not at all.
func TestCompressionRatioBounds(t *testing.T) {
	bpc := compress.NewBPC()
	zero := &memory.Snapshot{Allocations: []*memory.Allocation{memory.NewAllocation("z", 8192)}}
	if r := CompressionRatio(zero, bpc, compress.OptimisticSizes); r < 16 {
		t.Errorf("all-zero snapshot ratio %.1f, want very high", r)
	}
	rnd := &memory.Snapshot{Allocations: []*memory.Allocation{memory.NewAllocation("r", 8192)}}
	gen.Random{}.Fill(rnd.Allocations[0].Data, gen.NewRNG(1, 1))
	if r := CompressionRatio(rnd, bpc, compress.OptimisticSizes); r < 0.99 || r > 1.01 {
		t.Errorf("random snapshot ratio %.3f, want 1.0", r)
	}
}

// TestDegenerateSnapshots: empty and zero-entry snapshots must index and
// report a neutral ratio instead of dividing by zero (regression for the
// empty-snapshot 0-ratio bug in the pre-index CompressionRatio).
func TestDegenerateSnapshots(t *testing.T) {
	empty := &memory.Snapshot{}
	x := Build(empty, compress.NewBPC())
	if x.Entries() != 0 || len(x.Allocs) != 0 {
		t.Fatalf("empty snapshot index has %d entries", x.Entries())
	}
	if r := x.CompressionRatio(compress.OptimisticSizes); r != 1 {
		t.Errorf("empty snapshot ratio %.2f, want 1", r)
	}
	if h := x.SectorHistogram(); h != [5]int{} {
		t.Errorf("empty snapshot histogram %v", h)
	}
}

// TestSectorHistogramConvenience carries over the pre-refactor histogram
// test against the one-shot helper.
func TestSectorHistogramConvenience(t *testing.T) {
	a := memory.NewAllocation("m", 128*4)
	gen.Random{}.Fill(a.Data[:256], gen.NewRNG(2, 1)) // entries 0-1 raw, 2-3 zero
	h := SectorHistogram(a, compress.NewBPC())
	if h[4] != 2 || h[0] != 2 {
		t.Errorf("histogram %v, want 2 raw + 2 zero-page", h)
	}
}

// TestParallelBuildDeterministic drives the worker-pool path from many
// goroutines at once (meaningful under -race): concurrent builds of the
// same snapshot must agree with a fresh single build bit for bit.
// GOMAXPROCS is raised so the internal pool really spawns workers even on
// single-core CI runners.
func TestParallelBuildDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := testSnapshot(4*EntriesPerPage, 41) // enough entries for many grains
	want := Build(s, compress.NewBPC())
	const builders = 4
	results := make([]*Index, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			results[b] = Build(s, compress.NewBPC())
		}(b)
	}
	wg.Wait()
	for b, got := range results {
		if got.SectorHistogram() != want.SectorHistogram() {
			t.Fatalf("builder %d: histogram %v, want %v", b, got.SectorHistogram(), want.SectorHistogram())
		}
		for ai, a := range got.Allocs {
			ref := want.Allocs[ai]
			for i := 0; i < a.Entries(); i++ {
				if a.SectorClass(i) != ref.SectorClass(i) || a.Size(i) != ref.Size(i) || a.Zero(i) != ref.Zero(i) {
					t.Fatalf("builder %d: %s entry %d diverges", b, a.Name, i)
				}
			}
		}
	}
}

// TestBuildRun pins the run builder's sharing contract: BuildRun must equal
// a per-snapshot Build in every recorded quantity (class, size, histogram,
// zero count, pageMax, snapshot totals) while sizing an allocation only when
// its name or bytes changed since the previous snapshot.
func TestBuildRun(t *testing.T) {
	const n = 2*buildGrain + 7 // several grains and a partial page
	alloc := func(name string, g gen.Generator, entries int) *memory.Allocation {
		a := memory.NewAllocation(name, entries*memory.EntryBytes)
		g.Fill(a.Data, gen.NewRNG(11, 7))
		return a
	}
	clone := func(a *memory.Allocation) *memory.Allocation {
		return &memory.Allocation{Name: a.Name, Data: bytes.Clone(a.Data)}
	}
	shared := alloc("shared", gen.Noisy64{NoiseBits: 8, HiStep: 1}, n)
	copied := alloc("copied", gen.Stripe{A: gen.Zeros{}, B: gen.Random{}, PeriodEntries: 8, AEntries: 4}, n)
	flipped := alloc("flipped", gen.Weights32{Sigma: 0.02, QuantBits: 12}, n)
	grown := alloc("grown", gen.Ramp{Start: -100, Step: 3}, n)
	renamed := alloc("renamed", gen.Zeros{}, n)

	flipped1 := clone(flipped)
	flipped1.Data[len(flipped1.Data)-1] ^= 0x80
	grown1 := alloc("grown", gen.Ramp{Start: -100, Step: 3}, 2*n)
	renamed1 := clone(renamed)
	renamed1.Name = "renamed-again"
	snaps := []*memory.Snapshot{
		{Index: 0, Allocations: []*memory.Allocation{shared, copied, flipped, grown, renamed}},
		{Index: 1, Allocations: []*memory.Allocation{shared, clone(copied), flipped1, grown1, renamed1}},
		{Index: 2, Allocations: []*memory.Allocation{shared, copied, clone(flipped1), clone(grown1), renamed1}},
	}
	// reused[t][j]: snapshot t's allocation j must be snapshot t-1's AllocIndex.
	reused := [][]bool{
		{false, false, false, false, false},
		{true, true, false, false, false},
		{true, true, true, true, true},
	}
	for _, c := range compress.Registry() {
		run := BuildRun(snaps, c)
		if len(run) != len(snaps) {
			t.Fatalf("%s: %d indexes for %d snapshots", c.Name(), len(run), len(snaps))
		}
		for ti, s := range snaps {
			if want := Build(s, c); !reflect.DeepEqual(run[ti], want) {
				t.Errorf("%s: BuildRun[%d] differs from Build of the same snapshot:\n got %+v\nwant %+v", c.Name(), ti, run[ti], want)
			}
			if run[ti].Entries() != s.TotalEntries() {
				t.Errorf("%s: index %d: %d entries, want %d", c.Name(), ti, run[ti].Entries(), s.TotalEntries())
			}
			for j, ai := range run[ti].Allocs {
				if got := ti > 0 && ai == run[ti-1].Allocs[j]; got != reused[ti][j] {
					t.Errorf("%s: snapshot %d allocation %q: reused = %v, want %v", c.Name(), ti, s.Allocations[j].Name, got, reused[ti][j])
				}
				// A shared AllocIndex is summarized once: its histogram still
				// sums to its own entry count.
				var sum int
				for _, h := range ai.SectorHistogram() {
					sum += h
				}
				if sum != ai.Entries() {
					t.Errorf("%s: snapshot %d allocation %q: histogram sums to %d over %d entries", c.Name(), ti, ai.Name, sum, ai.Entries())
				}
			}
		}
	}
}
