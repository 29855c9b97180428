package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"buddy/internal/gen"
)

// The relocation kernel's accounting-equivalence oracle. The functions
// below are the movers as they were before they shared a span visitor — one
// entry per call, dev.mu, the shard lock and every traffic counter paid per
// entry — kept verbatim as the reference. TestRelocationMatchesPerEntry
// drives the batched kernel and the reference through the same randomized
// operation sequence on two identical worlds and requires the worlds to be
// bit-identical afterwards: Traffic, both tiers' BackendTraffic, the link's
// busy cycles per direction, the metadata store, every SectorCount and
// every stored stream.

// refMigrateEntry hands one entry from the old layout to the new one and
// returns the stored bytes it moved.
func refMigrateEntry(d *Device, a *Allocation, mig *migration, i int) int64 {
	d.mu.RLock()
	sh := a.shard(i)
	sh.Lock()
	gOld := a.reg.firstEntry + i
	gNew := mig.reg.firstEntry + i
	var devR, budR, devW, budW, stored int
	if !mig.moved[i] {
		if stream := d.streams[gOld]; stream != nil {
			sectors := d.meta.Get(gOld)
			d.streams[gNew] = stream
			d.streams[gOld] = nil
			d.meta.Set(gNew, sectors)
			d.meta.Set(gOld, 0)
			devR, budR = splitBytes(a.target, sectors)
			devW, budW = splitBytes(mig.target, sectors)
			stored = storedBytes(sectors)
		}
		mig.moved[i] = true
	}
	sh.Unlock()
	if stored > 0 {
		d.traffic.migrationBytes.Add(uint64(stored))
		d.traffic.deviceReadBytes.Add(uint64(devR))
		d.traffic.deviceWriteBytes.Add(uint64(devW))
		d.primary.Load(gOld, devR)
		d.primary.Store(gNew, devW)
		if budR > 0 {
			d.traffic.buddyReadBytes.Add(uint64(budR))
			d.overflow.Load(gOld, budR)
		}
		if budW > 0 {
			d.traffic.buddyWriteBytes.Add(uint64(budW))
			d.overflow.Store(gNew, budW)
		}
	}
	d.mu.RUnlock()
	return int64(stored)
}

// refExportEntry is ExportEntry's per-entry body.
func refExportEntry(a *Allocation, i int, dst []byte) (stream []byte, sectors int, written bool, err error) {
	d := a.dev
	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return dst, 0, false, a.errFreed()
	}
	sh := a.shard(i)
	sh.Lock()
	g, t := a.entryHome(i)
	sectors = d.meta.Get(g)
	written = d.streams[g] != nil
	dst = append(dst, d.streams[g]...)
	sh.Unlock()
	if written {
		stored := storedBytes(sectors)
		devR, budR := splitBytes(t, sectors)
		d.traffic.migrationBytes.Add(uint64(stored))
		d.traffic.deviceReadBytes.Add(uint64(devR))
		d.primary.Load(g, devR)
		if budR > 0 {
			d.traffic.buddyReadBytes.Add(uint64(budR))
			d.overflow.Load(g, budR)
		}
	}
	d.mu.RUnlock()
	if !written {
		return dst, 0, false, nil
	}
	return dst, sectors, true, nil
}

// refImportEntry is ImportEntry's per-entry body.
func refImportEntry(a *Allocation, i int, stream []byte, sectors int) error {
	d := a.dev
	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return a.errFreed()
	}
	if d.failed.Load() {
		d.mu.RUnlock()
		return d.errFailed()
	}
	sh := a.shard(i)
	sh.Lock()
	g, t := a.entryHome(i)
	d.streams[g] = append(d.streams[g][:0], stream...)
	d.meta.Set(g, sectors)
	a.sectorCount[i] = sectors
	sh.Unlock()
	stored := storedBytes(sectors)
	devW, budW := splitBytes(t, sectors)
	d.traffic.migrationBytes.Add(uint64(stored))
	d.traffic.deviceWriteBytes.Add(uint64(devW))
	d.primary.Store(g, devW)
	if budW > 0 {
		d.traffic.buddyWriteBytes.Add(uint64(budW))
		d.overflow.Store(g, budW)
	}
	d.mu.RUnlock()
	return nil
}

// refTransfer moves entries [lo, hi) one at a time, as the pool's mover did.
func refTransfer(src, dst *Allocation, lo, hi int) error {
	buf := make([]byte, 0, MaxStreamBytes)
	for i := lo; i < hi; i++ {
		stream, sectors, written, err := refExportEntry(src, i, buf[:0])
		if err != nil {
			return err
		}
		if !written {
			continue
		}
		if err := refImportEntry(dst, i, stream, sectors); err != nil {
			return err
		}
	}
	return nil
}

// refRebuild re-streams entries [lo, hi) from the carve-out copy and
// returns the entries and bytes rebuilt.
func refRebuild(d *Device, a *Allocation, lo, hi int) (n, moved int64) {
	d.mu.RLock()
	for i := lo; i < hi; i++ {
		sh := a.shard(i)
		sh.Lock()
		g, t := a.entryHome(i)
		sectors := d.meta.Get(g)
		written := d.streams[g] != nil
		sh.Unlock()
		if !written {
			continue
		}
		stored := storedBytes(sectors)
		dev, _ := splitBytes(t, sectors)
		d.traffic.buddyReadBytes.Add(uint64(stored))
		d.overflow.Load(g, stored)
		d.traffic.deviceWriteBytes.Add(uint64(dev))
		d.primary.Store(g, dev)
		n++
		moved += int64(stored)
	}
	d.mu.RUnlock()
	return n, moved
}

// relocWorld is one of the oracle's two identical worlds: a source and a
// destination device, the live allocations, and whether the movers run
// through the reference (per entry) or the kernel (batched).
type relocWorld struct {
	ref      bool
	src, dst *Device
	allocs   []*Allocation
}

// newRelocWorld builds a world. The span pools are closed at once so every
// span runs inline, in entry order: link busy cycles are sums of floats, and
// only a fixed order makes them comparable bit for bit.
func newRelocWorld(ref, hostTier bool) *relocWorld {
	mk := func() *Device {
		cfg := Config{DeviceBytes: 8 << 20}
		if hostTier {
			cfg.Overflow = NewHostBackend(4<<10, 64<<10)
		}
		d := NewDevice(cfg)
		_ = d.Close()
		return d
	}
	return &relocWorld{ref: ref, src: mk(), dst: mk()}
}

// migratePart moves entries [lo, hi) of a into mig's layout and returns the
// stored bytes moved.
func (w *relocWorld) migratePart(a *Allocation, mig *migration, lo, hi int) int64 {
	if w.ref {
		var moved int64
		for i := lo; i < hi; i++ {
			moved += refMigrateEntry(w.src, a, mig, i)
		}
		mig.bytes.Add(moved)
		return moved
	}
	before := mig.bytes.Load()
	if err := (&migrateSpan{a: a, mig: mig}).runSpan(lo, hi); err != nil {
		panic(err)
	}
	return mig.bytes.Load() - before
}

func (w *relocWorld) transfer(from, to *Allocation, lo, hi int) error {
	if w.ref {
		return refTransfer(from, to, lo, hi)
	}
	n, err := from.TransferEntries(to, lo, hi)
	if err == nil && n != hi-lo {
		return fmt.Errorf("TransferEntries moved %d of %d entries without an error", n, hi-lo)
	}
	return err
}

// recoverSrc kills and rebuilds the source device and returns the entries
// and bytes rebuilt. With a migration epoch installed it cannot go through
// Recover (which waits on the migMu the test's open migration stands for),
// so both sides run the rebuild walk over every allocation themselves.
func (w *relocWorld) recoverSrc() (entries, rebuilt int64) {
	w.src.Fail()
	for _, a := range w.src.Allocations() {
		if w.ref {
			n, b := refRebuild(w.src, a, 0, a.EntryCount)
			entries, rebuilt = entries+n, rebuilt+b
			continue
		}
		s := &rebuildSpan{a: a}
		// Odd split point: the second span starts on the upper half of a
		// metadata pair.
		mid := a.EntryCount/2 | 1
		if mid > a.EntryCount {
			mid = a.EntryCount
		}
		if err := s.runSpan(0, mid); err != nil {
			panic(err)
		}
		if err := s.runSpan(mid, a.EntryCount); err != nil {
			panic(err)
		}
		entries, rebuilt = entries+s.entries.Load(), rebuilt+s.bytes.Load()
	}
	w.src.failed.Store(false)
	return entries, rebuilt
}

// relocState is everything the oracle compares.
type relocState struct {
	Traffic            [2]Traffic
	Primary, Overflow  [2]BackendTraffic
	LinkRead, LinkWrit [2]float64
	Meta               [2][]uint8
	Streams            [2][][]byte
	Sectors            [][]int
}

func (w *relocWorld) state(extra ...*Allocation) relocState {
	var s relocState
	for k, d := range []*Device{w.src, w.dst} {
		s.Traffic[k] = d.Traffic()
		s.Primary[k] = d.primary.Traffic()
		s.Overflow[k] = d.overflow.Traffic()
		if c, ok := d.overflow.(*CarveoutBackend); ok {
			s.LinkRead[k], s.LinkWrit[k] = c.LinkOccupancy()
		}
		s.Meta[k] = bytes.Clone(d.meta.packed)
		s.Streams[k] = make([][]byte, len(d.streams))
		for g, st := range d.streams {
			if st != nil {
				s.Streams[k][g] = append([]byte{}, st...) // non-nil even when empty
			}
		}
	}
	for _, a := range append(append([]*Allocation{}, w.allocs...), extra...) {
		sc := make([]int, a.EntryCount)
		for i := range sc {
			sc[i] = a.SectorCount(i)
		}
		s.Sectors = append(s.Sectors, sc)
	}
	return s
}

// relocShapes are the entry contents the oracle mixes: the all-zero
// short-circuit, sparse activations, incompressible noise (raw fallback,
// four sectors: overflows every target but 1x) and a delta-friendly ramp.
var relocShapes = []gen.Generator{
	gen.Zeros{}, gen.SparseFP16{ZeroFrac: 0.7}, gen.Random{}, gen.Ramp{Start: 3, Step: 11},
	gen.Noisy64{NoiseBits: 8, HiStep: 1},
}

// populate mallocs n allocations of odd and even entry counts on the source
// device and writes random runs of random shapes into them, leaving gaps of
// never-written entries. Both worlds get the same calls from the same seed.
func (w *relocWorld) populate(t *testing.T, r *gen.RNG, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		entries := 1 + r.Intn(3*spanBatchEntries)
		target := AllRatios[r.Intn(len(AllRatios))]
		a, err := w.src.Malloc(fmt.Sprintf("a%d", k), int64(entries)*EntryBytes, target)
		if err != nil {
			t.Fatal(err)
		}
		w.allocs = append(w.allocs, a)
		for runs := r.Intn(6); runs > 0; runs-- {
			lo := r.Intn(entries)
			cnt := 1 + r.Intn(entries-lo)
			data := fillEntries(cnt, []gen.Generator{relocShapes[r.Intn(len(relocShapes))]}, r.Uint64())
			if err := a.WriteEntries(lo, data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRelocationMatchesPerEntry(t *testing.T) {
	for _, tier := range []struct {
		name string
		host bool
	}{{"carveout", false}, {"host-um", true}} {
		t.Run(tier.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				worlds := [2]*relocWorld{newRelocWorld(false, tier.host), newRelocWorld(true, tier.host)}
				var steps [2][]string
				var states [2][]relocState
				for k, w := range worlds {
					note := func(step string, extra ...*Allocation) {
						steps[k] = append(steps[k], step)
						states[k] = append(states[k], w.state(extra...))
					}
					r := gen.NewRNG(seed, 77)
					w.populate(t, r, 3+r.Intn(3))
					note("populate")
					for _, a := range w.allocs {
						// A whole Retarget, then one held open half-way so the
						// transfer and the rebuild below meet an entryHome
						// that splits mid-span.
						next := AllRatios[r.Intn(len(AllRatios))]
						if next != a.target {
							mig, err := w.src.beginMigration(a, next)
							if err != nil {
								t.Fatal(err)
							}
							moved := w.migratePart(a, mig, 0, a.EntryCount)
							if got := w.src.commitMigration(a, mig); got != moved {
								t.Fatalf("seed %d: migration reports %d bytes, its spans moved %d", seed, got, moved)
							}
							note(fmt.Sprintf("retarget %s to %s: %d bytes", a.Name, next, moved))
						}
						half := AllRatios[(int(a.target)+1+r.Intn(len(AllRatios)-1))%len(AllRatios)]
						mig, err := w.src.beginMigration(a, half)
						if err != nil {
							t.Fatal(err)
						}
						cut := r.Intn(a.EntryCount + 1)
						moved := w.migratePart(a, mig, 0, cut)
						note(fmt.Sprintf("half-migrate %s to %s at %d: %d bytes", a.Name, half, cut, moved))

						to, err := w.dst.Malloc(a.Name, a.size, a.target)
						if err != nil {
							t.Fatal(err)
						}
						lo := r.Intn(a.EntryCount)
						hi := lo + 1 + r.Intn(a.EntryCount-lo)
						if err := w.transfer(a, to, lo, hi); err != nil {
							t.Fatal(err)
						}
						note(fmt.Sprintf("transfer %s [%d,%d) mid-migration", a.Name, lo, hi), to)
						// And back over a different range, into buffers that
						// exist: the in-place import.
						if err := w.transfer(to, a, lo/2, hi); err != nil {
							t.Fatal(err)
						}
						note(fmt.Sprintf("transfer %s back [%d,%d)", a.Name, lo/2, hi), to)

						n, b := w.recoverSrc()
						note(fmt.Sprintf("recover mid-migration: %d entries, %d bytes", n, b), to)

						moved += w.migratePart(a, mig, 0, a.EntryCount)
						if got := w.src.commitMigration(a, mig); got != moved {
							t.Fatalf("seed %d: migration reports %d bytes, its spans moved %d", seed, got, moved)
						}
						note(fmt.Sprintf("finish %s: %d bytes", a.Name, moved), to)
						if err := to.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !reflect.DeepEqual(steps[0], steps[1]) {
					t.Fatalf("seed %d: the two worlds did different things:\n kernel    %q\n reference %q", seed, steps[0], steps[1])
				}
				for i := range states[0] {
					if !reflect.DeepEqual(states[0][i], states[1][i]) {
						t.Fatalf("seed %d after %q: kernel and per-entry reference diverge\n kernel    %+v\n reference %+v",
							seed, steps[0][i], summary(states[0][i]), summary(states[1][i]))
					}
				}
			}
		})
	}
}

// summary is a relocState without the bulk (streams, metadata, sectors),
// for failure messages.
func summary(s relocState) any {
	return struct {
		Traffic            [2]Traffic
		Primary, Overflow  [2]BackendTraffic
		LinkRead, LinkWrit [2]float64
	}{s.Traffic, s.Primary, s.Overflow, s.LinkRead, s.LinkWrit}
}

// TestTransferChargesSourceAfterCommit pins the charge-after-commit rule at
// the kernel: a sub-batch the destination refuses (killed, or freed) leaves
// no trace on either device — nothing installed, nothing charged, source
// included — and the count returned is the committed prefix.
func TestTransferChargesSourceAfterCommit(t *testing.T) {
	src := NewDevice(Config{DeviceBytes: 4 << 20})
	dst := NewDevice(Config{DeviceBytes: 4 << 20})
	const entries = 2*spanBatchEntries + 37
	sa, err := src.Malloc("m", entries*EntryBytes, Target4x)
	if err != nil {
		t.Fatal(err)
	}
	da, err := dst.Malloc("m", entries*EntryBytes, Target4x)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.WriteEntries(0, fillEntries(entries, relocShapes, 5)); err != nil {
		t.Fatal(err)
	}
	src.ResetTraffic()
	dst.ResetTraffic()

	dst.Fail()
	n, err := sa.TransferEntries(da, 0, entries)
	if n != 0 || !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("transfer into a failed device: n=%d err=%v, want 0 and ErrDeviceFailed", n, err)
	}
	if st, dt := src.Traffic(), dst.Traffic(); st != (Traffic{}) || dt != (Traffic{}) {
		t.Fatalf("refused transfer was charged: source %+v destination %+v", st, dt)
	}
	if p, o := src.primary.Traffic(), src.overflow.Traffic(); p != (BackendTraffic{}) || o != (BackendTraffic{}) {
		t.Fatalf("refused transfer touched the source tiers: %+v %+v", p, o)
	}
	if _, _, err := dst.Recover(); err != nil {
		t.Fatal(err)
	}
	dst.ResetTraffic()

	// One clean sub-batch, then the destination dies: the prefix is
	// committed and charged on both sides, equally.
	n, err = sa.TransferEntries(da, 0, spanBatchEntries)
	if n != spanBatchEntries || err != nil {
		t.Fatalf("clean sub-batch: n=%d err=%v", n, err)
	}
	dst.Fail()
	n, err = sa.TransferEntries(da, spanBatchEntries, entries)
	if n != 0 || !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("second transfer: n=%d err=%v, want 0 and ErrDeviceFailed", n, err)
	}
	st, dt := src.Traffic(), dst.Traffic()
	if st.MigrationBytes == 0 || st.MigrationBytes != dt.MigrationBytes {
		t.Errorf("MigrationBytes out=%d in=%d, want equal and nonzero", st.MigrationBytes, dt.MigrationBytes)
	}
	if err := da.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.TransferEntries(da, 0, 8); !errors.Is(err, ErrFreed) {
		t.Errorf("transfer into a freed allocation: %v, want ErrFreed", err)
	}
	if got := src.Traffic(); got != st {
		t.Errorf("transfer into a freed allocation charged the source: %+v, was %+v", got, st)
	}
	if _, err := sa.TransferEntries(da, 4, entries+1); err == nil {
		t.Error("out-of-range transfer succeeded")
	}
}
