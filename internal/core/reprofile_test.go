package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/memory"
	"buddy/internal/race"
	"buddy/internal/workloads"
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

// loadSnapshot allocates each of s's regions on d at its target in targets
// and writes its bytes.
func loadSnapshot(t *testing.T, d *Device, s *memory.Snapshot, targets map[string]TargetRatio) []*Allocation {
	t.Helper()
	var out []*Allocation
	for _, ma := range s.Allocations {
		a, err := d.Malloc(ma.Name, int64(len(ma.Data)), targets[ma.Name])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.WriteAt(ma.Data, 0); err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func TestPlanReprofileDetectsDrift(t *testing.T) {
	bpc := compress.NewBPC()
	// Initially profiled while the data was all zero: 16x.
	initial := Profile([]*memory.Snapshot{driftSnapshot(0)}, bpc, FinalDesign())
	if initial.Targets()["drifting"] != Target16x {
		t.Fatalf("initial target = %s, want 16x", initial.Targets()["drifting"])
	}
	d := newTestDevice(4 << 20)
	allocs := loadSnapshot(t, d, driftSnapshot(0), initial.Targets())
	// At the next checkpoint the data has densified to ~2x material.
	if _, err := allocs[1].WriteAt(driftSnapshot(1).Allocations[1].Data, 0); err != nil {
		t.Fatal(err)
	}
	plan := PlanReprofile(d.Allocations(), FinalDesign())
	if len(plan.Decisions) != 1 {
		t.Fatalf("want one decision, got %d", len(plan.Decisions))
	}
	dec := plan.Decisions[0]
	if dec.Alloc != allocs[1] {
		t.Errorf("decision for %s, want the drifting allocation", dec.Alloc.Name)
	}
	if dec.Old != Target16x || dec.New != Target2x {
		t.Errorf("decision %s -> %s, want 16x -> 2x", dec.Old, dec.New)
	}
	if dec.MigrationBytes <= 0 {
		t.Error("target change must report a migration cost")
	}
	// Keeping the stale 16x target on dense data would overflow the whole
	// allocation (a quarter of the program's entries).
	if dec.OldOverflowFrac < 0.95 {
		t.Errorf("stale per-allocation overflow = %.2f, want ~1.0", dec.OldOverflowFrac)
	}
	if dec.NewOverflowFrac > 0.05 {
		t.Errorf("updated per-allocation overflow = %.2f, want ~0", dec.NewOverflowFrac)
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

// TestPlanReprofileStableDataNoChanges loads a snapshot at its own profile's
// targets: the live plan profiles the device exactly as the snapshot
// profiled, so nothing changes.
func TestPlanReprofileStableDataNoChanges(t *testing.T) {
	snap := driftSnapshot(1)
	initial := Profile([]*memory.Snapshot{snap}, compress.NewBPC(), FinalDesign())
	d := newTestDevice(4 << 20)
	loadSnapshot(t, d, snap, initial.Targets())
	plan := PlanReprofile(d.Allocations(), FinalDesign())
	if len(plan.Decisions) != 0 {
		t.Errorf("stable data should need no changes, got %d", len(plan.Decisions))
	}
	if plan.TotalMigrationBytes != 0 {
		t.Errorf("no changes should cost nothing, got %d", plan.TotalMigrationBytes)
	}
	if plan.RatioBefore != plan.RatioAfter {
		t.Errorf("ratio should be unchanged: %.2f vs %.2f", plan.RatioBefore, plan.RatioAfter)
	}
	for i, p := range plan.Result.Allocations {
		if q := initial.Allocations[i]; *p != *q {
			t.Errorf("live profile %+v, snapshot profile %+v", *p, *q)
		}
	}
	if r := plan.Result; r.CompressionRatio != initial.CompressionRatio ||
		r.BuddyAccessFraction != initial.BuddyAccessFraction || r.BestAchievable != initial.BestAchievable {
		t.Errorf("live result %+v, snapshot result %+v", *r, *initial)
	}
}

// readBack is a snapshot of allocs' bytes as they read now.
func readBack(t *testing.T, allocs []*Allocation) *memory.Snapshot {
	t.Helper()
	s := &memory.Snapshot{}
	for _, a := range allocs {
		ma := memory.NewAllocation(a.Name, int(a.Size()))
		if _, err := a.ReadAt(ma.Data, 0); err != nil {
			t.Fatal(err)
		}
		s.Allocations = append(s.Allocations, ma)
	}
	return s
}

// gappy mallocs an allocation of a partial tail line on d and writes runs of
// relocShapes into it, leaving whole and partial lines never written.
func gappy(t *testing.T, d *Device, r *gen.RNG) *Allocation {
	t.Helper()
	const entries = 7*EntriesPerMetadataLine + 37
	a, err := d.Malloc("gappy", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; {
		n := 1 + r.Intn(90)
		if r.Intn(3) != 0 {
			n = min(n, entries-i)
			if err := a.WriteEntries(i, fillEntries(n, relocShapes, r.Uint64())); err != nil {
				t.Fatal(err)
			}
		}
		i += n
	}
	return a
}

// TestClassHistogramMatchesIndex holds the live histogram to the profiler's
// over the same bytes, exactly, under every codec: analysis.Build of the
// allocation read back, where a never-written entry reads as zeros.
func TestClassHistogramMatchesIndex(t *testing.T) {
	reg := compress.Registry()
	for i, c := range reg {
		t.Run(c.Name(), func(t *testing.T) {
			match := func(t *testing.T, allocs []*Allocation) {
				t.Helper()
				x := analysis.Build(readBack(t, allocs), allocs[0].Device().codec)
				for i, a := range allocs {
					if got, want := a.ClassHistogram(), x.Allocs[i].SectorHistogram(); got != want {
						t.Errorf("%s: live %v, index %v", a.Name, got, want)
					}
				}
			}
			t.Run("benchmarks", func(t *testing.T) {
				// The sixteen benchmarks' first dumps at the quick experiment
				// scale (exp.Quick's workload divisor): one goroutine, so
				// nothing for the race detector but its wall clock.
				if race.Enabled {
					t.Skip("single-threaded corpus sweep")
				}
				for _, b := range workloads.Table1() {
					s := workloads.GenerateSnapshot(b, 0, 16384)
					d := NewDevice(Config{Codec: c, DeviceBytes: 2 * int64(s.TotalBytes())})
					match(t, loadSnapshot(t, d, s, nil))
				}
			})
			t.Run("gaps and a partial tail line", func(t *testing.T) {
				d := NewDevice(Config{Codec: c, DeviceBytes: 4 << 20})
				match(t, []*Allocation{gappy(t, d, gen.NewRNG(5, 1))})
			})
			// Mid-relayout each entry counts under its home layout's codec:
			// the same device's (a Retarget), or the next registry codec's
			// device (a MoveTo).
			for _, move := range []bool{false, true} {
				name := "mid-Retarget"
				if move {
					name = "mid-MoveTo"
				}
				t.Run(name, func(t *testing.T) {
					serialSpans(t)
					src := NewDevice(Config{Codec: c, DeviceBytes: 4 << 20})
					dst := src
					if move {
						dst = NewDevice(Config{Codec: reg[(i+1)%len(reg)], DeviceBytes: 4 << 20})
					}
					a := gappy(t, src, gen.NewRNG(6, 2))
					m, err := a.beginRelayout(dst, Target4x)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := part(a, relocMigrate, 0, 3*EntriesPerMetadataLine+21); err != nil {
						t.Fatal(err)
					}
					s := readBack(t, []*Allocation{a})
					from, to := analysis.Build(s, src.codec).Allocs[0], analysis.Build(s, dst.codec).Allocs[0]
					var want [compress.SectorsPerEntry + 1]int
					for i := 0; i < a.EntryCount; i++ {
						x := from
						if m.has(i) {
							x = to
						}
						want[x.SectorClass(i)]++
					}
					if got := a.ClassHistogram(); got != want {
						t.Errorf("live %v, by home %v", got, want)
					}
					part(a, relocMigrate, 0, a.EntryCount)
					a.commitRelayout(m)
					match(t, []*Allocation{a})
				})
			}
		})
	}
	d := newTestDevice(1 << 20)
	a := gappy(t, d, gen.NewRNG(7, 3))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if h := a.ClassHistogram(); h != [compress.SectorsPerEntry + 1]int{} {
		t.Errorf("a freed allocation reports %v, want no entries", h)
	}
}

// TestClassHistogramUnderWriters reads histograms while writers rewrite
// whole metadata lines — each line all zero (class 0) or all random
// (class 4), one shard lock each — and a retargeter keeps relaying the
// allocation out: every histogram must be a sum of per-line snapshots, so
// both counts are whole lines. Run under -race -cpu 1,4.
func TestClassHistogramUnderWriters(t *testing.T) {
	const lines = 48
	d := newTestDevice(8 << 20)
	a, err := d.Malloc("w", lines*EntriesPerMetadataLine*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	line := func(g gen.Generator) []byte { return fillEntries(EntriesPerMetadataLine, []gen.Generator{g}, 9) }
	shapes := [][]byte{line(gen.Zeros{}), line(gen.Random{})}
	if bytes.Equal(shapes[0], shapes[1]) {
		t.Fatal("the two line shapes are equal")
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(r *gen.RNG) {
			defer wg.Done()
			for !stop.Load() {
				if err := a.WriteEntries(r.Intn(lines)*EntriesPerMetadataLine, shapes[r.Intn(2)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(gen.NewRNG(uint64(w), 11))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := d.Retarget(a, []TargetRatio{Target4x, Target2x}[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		h := a.ClassHistogram()
		if h[0]%EntriesPerMetadataLine != 0 || h[4]%EntriesPerMetadataLine != 0 ||
			h[0]+h[4] != a.EntryCount || h[1]+h[2]+h[3] != 0 {
			t.Errorf("histogram %v is not a sum of whole-line snapshots", h)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// BenchmarkClassHistogram is the live profile's cost: ns per entry of one
// ClassHistogram over a mixed-class 1 MiB allocation, allocation-free.
func BenchmarkClassHistogram(b *testing.B) {
	a := benchAlloc(b, 1<<20)
	if err := a.WriteEntries(0, fillEntries(a.EntryCount, relocShapes, 13)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ClassHistogram()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.EntryCount), "ns/entry")
}
