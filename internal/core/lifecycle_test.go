package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/memory"
)

func fillEntries(entries int, gens []gen.Generator, seed uint64) []byte {
	data := make([]byte, entries*EntryBytes)
	r := gen.NewRNG(seed, 1)
	for e := 0; e < entries; e++ {
		gens[e%len(gens)].Fill(data[e*EntryBytes:(e+1)*EntryBytes], r)
	}
	return data
}

func TestFreeReturnsReservationsOnEveryTier(t *testing.T) {
	overflows := map[string]func() Backend{
		"carveout": func() Backend { return nil }, // default NVLink carve-out
		"host-um":  func() Backend { return NewHostBackend(0, 1<<20) },
	}
	for name, mk := range overflows {
		t.Run(name, func(t *testing.T) {
			d := NewDevice(Config{DeviceBytes: 1 << 20, Overflow: mk()})
			var allocs []*Allocation
			for i, target := range AllRatios {
				a, err := d.Malloc(fmt.Sprintf("a%d", i), 31<<10, target)
				if err != nil {
					t.Fatal(err)
				}
				allocs = append(allocs, a)
			}
			if d.DeviceUsed() == 0 || d.BuddyUsed() == 0 {
				t.Fatal("allocations should reserve bytes on both tiers")
			}
			for _, a := range allocs {
				if err := d.Free(a); err != nil {
					t.Fatal(err)
				}
			}
			if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != 0 || bu != 0 {
				t.Errorf("after free-all: device=%d buddy=%d, want 0/0", du, bu)
			}
			if n := len(d.Allocations()); n != 0 {
				t.Errorf("free-all left %d allocations listed", n)
			}
		})
	}
}

func TestFreedAllocationErrorsTyped(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, err := d.Malloc("gone", 8<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	other, err := d.Malloc("other", 8<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // io.Closer path
		t.Fatal(err)
	}
	if a.Freed() != true {
		t.Error("Freed() should report true after Close")
	}
	buf := make([]byte, EntryBytes)
	if err := a.WriteEntry(0, buf); !errors.Is(err, ErrFreed) {
		t.Errorf("WriteEntry after free = %v, want ErrFreed", err)
	}
	if err := a.ReadEntry(0, buf); !errors.Is(err, ErrFreed) {
		t.Errorf("ReadEntry after free = %v, want ErrFreed", err)
	}
	if _, err := a.WriteAt(buf, 0); !errors.Is(err, ErrFreed) {
		t.Errorf("WriteAt after free = %v, want ErrFreed", err)
	}
	if _, err := a.ReadAt(buf, 0); !errors.Is(err, ErrFreed) {
		t.Errorf("ReadAt after free = %v, want ErrFreed", err)
	}
	if _, err := Memcpy(other, a, 128); !errors.Is(err, ErrFreed) {
		t.Errorf("Memcpy from freed source = %v, want ErrFreed", err)
	}
	if err := d.Free(a); !errors.Is(err, ErrFreed) {
		t.Errorf("double Free = %v, want ErrFreed", err)
	}
	// The survivor is untouched.
	if err := other.WriteEntry(0, buf); err != nil {
		t.Errorf("free must not disturb other allocations: %v", err)
	}
	// Free rejects foreign allocations.
	d2 := newTestDevice(1 << 20)
	if err := d2.Free(other); err == nil {
		t.Error("Free on the wrong device should error")
	}
}

func TestFreeMakesEntryTableReusable(t *testing.T) {
	d := newTestDevice(1 << 20)
	grown := -1
	// A steady malloc/free cycle of one shape must not grow the global
	// entry table: the retired region is a hole the next Malloc reuses.
	for i := 0; i < 16; i++ {
		a, err := d.Malloc("cycle", 64<<10, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		data := fillEntries(a.EntryCount, []gen.Generator{gen.Ramp{Step: 3}}, uint64(i))
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("cycle %d: round-trip mismatch on a reused region", i)
		}
		if err := d.Free(a); err != nil {
			t.Fatal(err)
		}
		d.mu.RLock()
		total := d.totalEntry
		d.mu.RUnlock()
		if grown == -1 {
			grown = total
		} else if total != grown {
			t.Fatalf("cycle %d: entry table grew %d -> %d despite free", i, grown, total)
		}
	}
	// Reused slots must read as zero for the new tenant, not leak the old
	// tenant's contents.
	a, err := d.Malloc("fresh", 64<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, EntryBytes)
	if err := a.ReadEntry(3, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("reused region leaked the previous tenant's data")
		}
	}
}

// TestFreeCoalescesBothNeighbours frees the middle of three adjacent
// allocations last: the hole it leaves lies between two holes and must join
// both, so an allocation of their combined size reuses the space instead of
// growing the modeled entry table.
func TestFreeCoalescesBothNeighbours(t *testing.T) {
	d := newTestDevice(1 << 20)
	var abc [3]*Allocation
	for i := range abc {
		a, err := d.Malloc(fmt.Sprintf("r%d", i), 16<<10, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		abc[i] = a
	}
	for _, i := range []int{0, 2, 1} {
		if err := d.Free(abc[i]); err != nil {
			t.Fatal(err)
		}
	}
	grown := d.totalEntry
	if len(d.holes) != 1 || d.holes[0].slots != grown {
		t.Errorf("holes after freeing everything: %+v, want one of %d slots", d.holes, grown)
	}
	if _, err := d.Malloc("all", 3*16<<10, Target2x); err != nil {
		t.Fatal(err)
	}
	if d.totalEntry != grown {
		t.Errorf("entry table grew %d -> %d: the three holes were not one", grown, d.totalEntry)
	}
}

// TestStripesAreTheAllocations: the entry shard locks belong to the
// allocation — two allocations of one device contend on no stripe, and an
// allocation moved to another device and back locks entry i with the very
// mutex it always did.
func TestStripesAreTheAllocations(t *testing.T) {
	d, other := newTestDevice(1<<20), newTestDevice(1<<20)
	a, err := d.Malloc("a", 16<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc("b", 16<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	stripes := map[*sync.Mutex]bool{}
	for i := 0; i < a.EntryCount; i++ {
		stripes[a.shard(i)] = true
		if a.shard(i) != a.shard(i^1) {
			t.Fatalf("entries %d and %d share a metadata byte but not a stripe", i, i^1)
		}
	}
	if len(stripes) != min(entryShards, a.EntryCount/2) {
		t.Errorf("a's %d entries use %d stripes, want %d", a.EntryCount, len(stripes), min(entryShards, a.EntryCount/2))
	}
	for i := 0; i < b.EntryCount; i++ {
		if stripes[b.shard(i)] {
			t.Fatalf("entry %d of b is striped by a mutex of a", i)
		}
	}
	before := make([]*sync.Mutex, a.EntryCount)
	for i := range before {
		before[i] = a.shard(i)
	}
	for _, to := range []*Device{other, d} {
		if err := a.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		for i, sh := range before {
			if a.shard(i) != sh {
				t.Fatalf("entry %d changed stripes on the move to another device", i)
			}
		}
	}
}

func TestRetargetPreservesContentsAndAccounting(t *testing.T) {
	d := newTestDevice(4 << 20)
	// Odd entry count (801) with an unaligned tail: pad slot in play.
	a, err := d.Malloc("live", 801*EntryBytes-37, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if a.EntryCount%2 == 0 {
		t.Fatalf("test wants an odd entry count, got %d", a.EntryCount)
	}
	gens := []gen.Generator{
		gen.Zeros{}, gen.Ramp{Step: 3}, gen.Noisy64{NoiseBits: 8, HiStep: 1}, gen.Random{},
	}
	data := fillEntries(a.EntryCount, gens, 11)[:a.Size()]
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for _, target := range []TargetRatio{Target4x, Target16x, Target1x, Target4by3x, Target2x} {
		moved, err := d.Retarget(a, target)
		if err != nil {
			t.Fatalf("retarget to %s: %v", target, err)
		}
		if moved <= 0 {
			t.Errorf("retarget to %s moved %d bytes, want > 0", target, moved)
		}
		if got := a.Target(); got != target {
			t.Fatalf("target after retarget = %s, want %s", got, target)
		}
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("contents corrupted by retarget to %s", target)
		}
		// Reservations must equal a fresh Malloc at the new target.
		wantDev := int64(a.EntryCount) * int64(target.DeviceBytes())
		wantBud := int64(a.EntryCount) * int64(target.BuddySlotBytes())
		if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != wantDev || bu != wantBud {
			t.Errorf("after retarget to %s: device=%d buddy=%d, want %d/%d",
				target, du, bu, wantDev, wantBud)
		}
	}
	// Retarget to the current target is a no-op.
	if moved, err := d.Retarget(a, Target2x); err != nil || moved != 0 {
		t.Errorf("no-op retarget = (%d, %v), want (0, nil)", moved, err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retarget(a, Target4x); !errors.Is(err, ErrFreed) {
		t.Errorf("retarget after free = %v, want ErrFreed", err)
	}
	if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != 0 || bu != 0 {
		t.Errorf("after final free: device=%d buddy=%d, want 0/0", du, bu)
	}
}

func TestRetargetOutOfMemoryLeavesAllocationUntouched(t *testing.T) {
	// Device sized so the 2x layout fits but holding both the 2x and the 1x
	// layout at once does not: Retarget must fail cleanly.
	d := newTestDevice(96 << 10)
	a, err := d.Malloc("tight", 128<<10, Target2x) // 64 KiB device reservation
	if err != nil {
		t.Fatal(err)
	}
	data := fillEntries(a.EntryCount, []gen.Generator{gen.Ramp{Step: 5}}, 3)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Retarget(a, Target1x); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("retarget into a full device = %v, want ErrOutOfMemory", err)
	}
	if got := a.Target(); got != Target2x {
		t.Errorf("failed retarget changed the target to %s", got)
	}
	if du := d.DeviceUsed(); du != 64<<10 {
		t.Errorf("failed retarget leaked device reservation: used %d, want %d", du, 64<<10)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Error("failed retarget disturbed contents")
	}
}

func TestApplyReprofileFromPlan(t *testing.T) {
	const entries = 512
	bpc := compress.NewBPC()
	// The incompressible ballast keeps the aggregate ratio under the 4x
	// carve-out cap so the zero-page region can actually take 16x.
	ballast := fillEntries(entries, []gen.Generator{gen.Random{}}, 9)
	mkSnap := func(g gen.Generator, seed uint64) *memory.Snapshot {
		return &memory.Snapshot{Allocations: []*memory.Allocation{
			{Name: "w", Data: fillEntries(entries, []gen.Generator{g}, seed)},
			{Name: "ballast", Data: ballast},
		}}
	}
	early := mkSnap(gen.Zeros{}, 1)                         // mostly-zero: profiles to 16x
	late := mkSnap(gen.Noisy64{NoiseBits: 8, HiStep: 1}, 2) // 2-sector data: profiles to 2x

	initial := Profile([]*memory.Snapshot{early}, bpc, FinalDesign())
	targets := initial.Targets()
	if targets["w"] != Target16x || targets["ballast"] != Target1x {
		t.Fatalf("early profile chose %s/%s, want 16x/1x", targets["w"], targets["ballast"])
	}

	d := newTestDevice(1 << 20)
	a, err := d.Malloc("w", entries*EntryBytes, targets["w"])
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc("ballast", entries*EntryBytes, targets["ballast"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(early.Allocations[0].Data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(ballast, 0); err != nil {
		t.Fatal(err)
	}
	// The workload drifts: the same region now holds the late data, and the
	// stale 16x target overflows every entry.
	if _, err := a.WriteAt(late.Allocations[0].Data, 0); err != nil {
		t.Fatal(err)
	}

	plan := PlanReprofile(targets, []*memory.Snapshot{late}, bpc, FinalDesign())
	if len(plan.Decisions) != 1 || plan.Decisions[0].New != Target2x {
		t.Fatalf("plan = %+v, want one 16x->2x decision", plan.Decisions)
	}
	if plan.BuddyFracAfter >= plan.BuddyFracBefore {
		t.Fatalf("plan predicts no buddy-access win: %.3f -> %.3f",
			plan.BuddyFracBefore, plan.BuddyFracAfter)
	}
	if !d.ReprofileWorthwhile(plan) {
		t.Fatal("plan should amortize within the default horizon")
	}
	if tiny := NewDevice(Config{DeviceBytes: 1 << 20, ReprofileHorizon: 1}); tiny.ReprofileWorthwhile(plan) {
		t.Error("a 1-access horizon can never repay a migration")
	}

	before := d.Traffic()
	st, err := d.ApplyReprofile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.Skipped != 0 {
		t.Fatalf("stats = %+v, want 1 applied", st)
	}
	if got := a.Target(); got != Target2x {
		t.Fatalf("target after ApplyReprofile = %s, want 2x", got)
	}
	// Actual migration cost matches the plan's estimate (both count stored
	// bytes: 8 per zero-class entry, 32 per sector otherwise).
	if diff := st.MigratedBytes - plan.TotalMigrationBytes; diff < -1 || diff > 1 {
		t.Errorf("migrated %d bytes, plan estimated %d", st.MigratedBytes, plan.TotalMigrationBytes)
	}
	if got := d.Traffic().MigrationBytes - before.MigrationBytes; int64(got) != st.MigratedBytes {
		t.Errorf("Traffic.MigrationBytes moved %d, stats say %d", got, st.MigratedBytes)
	}
	// Accounting equals fresh Mallocs at the new targets (w at 2x, the
	// untouched ballast at 1x).
	wantDev := int64(entries)*64 + int64(entries)*128
	wantBud := int64(entries) * 64
	if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != wantDev || bu != wantBud {
		t.Errorf("after reprofile: device=%d buddy=%d, want %d/%d", du, bu, wantDev, wantBud)
	}
	got := make([]byte, entries*EntryBytes)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, late.Allocations[0].Data) {
		t.Error("contents corrupted by ApplyReprofile")
	}
	// A stale plan (targets no longer match) degrades to skips.
	st2, err := d.ApplyReprofile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Applied != 0 || st2.Skipped != 1 {
		t.Errorf("stale plan stats = %+v, want 1 skipped", st2)
	}
	// The new placement actually reduces buddy traffic on this data.
	d.ResetTraffic()
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if f := d.Traffic().BuddyAccessFraction(); f != 0 {
		t.Errorf("2-sector data at 2x should never touch buddy, frac=%.3f", f)
	}
}

// retryWhileFailed runs op until it stops failing with ErrDeviceFailed: what
// a client of a device whose tier is killed and rebuilt under it does.
func retryWhileFailed(op func() error) error {
	for {
		err := op()
		if !errors.Is(err, ErrDeviceFailed) {
			return err
		}
		runtime.Gosched()
	}
}

// TestMigrationRaceStress hammers byte-addressed reads, writes and Memcpy
// on an allocation while Retarget migrates it back and forth between
// layouts and the device tier is killed and rebuilt in between. The
// writers' ranges start on odd entries and straddle the relocation kernel's
// sub-batch boundaries (multiples of spanBatchEntries), so their spans meet
// the migrate passes mid-pair and mid-sub-batch. Run under -race this is
// the concurrency proof for live migration; after quiesce, contents must
// match the final writes byte-for-byte and every tier's Reserve/Release
// accounting must be exact.
func TestMigrationRaceStress(t *testing.T) {
	d := newTestDevice(8 << 20)
	const entries = 4 * spanBatchEntries
	a, err := d.Malloc("hot", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := d.Malloc("scratch", entries*EntryBytes, Target1x)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const iters = 24
	// Writer w owns [first+w*perWriter, first+(w+1)*perWriter): odd starts,
	// an odd length, and entries 256, 512 and 768 each inside one writer's
	// range. Entries below first are never written.
	const first = 101
	const perWriter = (entries - first) / writers
	phases := []gen.Generator{
		gen.Zeros{}, gen.Noisy64{NoiseBits: 8, HiStep: 1}, gen.Random{}, gen.Ramp{Step: 7},
	}
	// Each writer owns a disjoint entry range and cycles the data's
	// compressibility; the final iteration's bytes are the expected state.
	final := make([]byte, entries*EntryBytes)
	var writerWG, bgWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			lo := int64(first+w*perWriter) * EntryBytes
			span := perWriter * EntryBytes
			for i := 0; i < iters; i++ {
				data := fillEntries(perWriter, []gen.Generator{phases[(w+i)%len(phases)]}, uint64(w*1000+i))
				if i == iters-1 {
					copy(final[lo:], data)
				}
				if err := retryWhileFailed(func() error {
					_, err := a.WriteAt(data[:span], lo)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers and Memcpy traffic across the whole allocation.
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		bgWG.Add(1)
		go func(r int) {
			defer bgWG.Done()
			buf := make([]byte, 3000)
			for off := int64(r * 511); ; off = (off + 4093) % (entries*EntryBytes - 3000) {
				select {
				case <-stop:
					return
				default:
				}
				if err := retryWhileFailed(func() error {
					_, err := a.ReadAt(buf, off)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := retryWhileFailed(func() error {
				_, err := Memcpy(scratch, a, entries*EntryBytes)
				return err
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// The migration loop runs concurrently with all of the above.
	for _, target := range []TargetRatio{Target4x, Target1x, Target16x, Target4by3x, Target2x} {
		if _, err := d.Retarget(a, target); err != nil {
			t.Error(err)
		}
		// Kill and rebuild the device tier between migrations: the rebuild
		// passes walk the same table while the clients retry.
		d.Fail()
		if _, _, err := d.Recover(); err != nil {
			t.Error(err)
		}
	}
	// Let the writers finish, then quiesce the readers and the copier.
	writerWG.Wait()
	close(stop)
	bgWG.Wait()

	if got := a.Target(); got != Target2x {
		t.Fatalf("final target = %s, want 2x", got)
	}
	got := make([]byte, entries*EntryBytes)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < entries; e++ {
		if !bytes.Equal(got[e*EntryBytes:(e+1)*EntryBytes], final[e*EntryBytes:(e+1)*EntryBytes]) {
			t.Fatalf("entry %d corrupted by concurrent migration", e)
		}
	}
	// Exact accounting: reservations equal fresh Mallocs of the two live
	// allocations, and free-all returns both tiers to zero.
	wantDev := int64(entries)*int64(Target2x.DeviceBytes()) + int64(entries)*int64(Target1x.DeviceBytes())
	wantBud := int64(entries)*int64(Target2x.BuddySlotBytes()) + int64(entries)*int64(Target1x.BuddySlotBytes())
	if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != wantDev || bu != wantBud {
		t.Errorf("post-stress reservations device=%d buddy=%d, want %d/%d", du, bu, wantDev, wantBud)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := scratch.Close(); err != nil {
		t.Fatal(err)
	}
	if du, bu := d.DeviceUsed(), d.BuddyUsed(); du != 0 || bu != 0 {
		t.Errorf("leaked or double-released bytes: device=%d buddy=%d", du, bu)
	}
}

// TestSplitBytesProperty checks the placement split for every target ratio
// across sector counts well past the architectural 0..4 range: the split
// always decomposes the entry's access bytes exactly, never exceeds the
// per-entry device budget, agrees with OverflowSectors, and is monotonic in
// the sector count.
func TestSplitBytesProperty(t *testing.T) {
	for _, target := range AllRatios {
		prevDev, prevBud := -1, -1
		for s := 0; s <= 32; s++ {
			dev, bud := splitBytes(target, s)
			if dev < 0 || bud < 0 {
				t.Fatalf("%s/%d: negative split %d/%d", target, s, dev, bud)
			}
			// Total decomposition: the 16x mode reads its 8 B metadata word
			// plus the whole compressed entry from buddy; every other mode
			// moves whole sectors with a one-sector device minimum.
			want := max(s, 1) * 32
			if target == Target16x {
				want = 8 + s*32
			}
			if dev+bud != want {
				t.Errorf("%s/%d: dev+buddy = %d, want %d", target, s, dev+bud, want)
			}
			if dev > target.DeviceBytes() {
				t.Errorf("%s/%d: device bytes %d exceed per-entry budget %d",
					target, s, dev, target.DeviceBytes())
			}
			if bud != target.OverflowSectors(s)*32 {
				t.Errorf("%s/%d: buddy bytes %d disagree with OverflowSectors %d",
					target, s, bud, target.OverflowSectors(s)*32)
			}
			if dev < prevDev || bud < prevBud {
				t.Errorf("%s/%d: split not monotonic (%d/%d after %d/%d)",
					target, s, dev, bud, prevDev, prevBud)
			}
			prevDev, prevBud = dev, bud
		}
	}
}
