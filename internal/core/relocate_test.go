package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/gen"
)

// The relocation kernel's accounting-equivalence oracle. The functions
// below are the movers as they were before they shared a span visitor — one
// entry per call, the allocation's lock, the shard lock and every traffic
// counter paid per entry — kept verbatim as the reference, ported from the
// device-wide side tables to layouts. TestRelocationMatchesPerEntry drives
// the batched kernel and the reference through the same randomized operation
// sequence on two identical worlds and requires the worlds to be
// bit-identical afterwards: Traffic, both tiers' BackendTraffic, the link's
// busy cycles per direction and the metadata cache's hits and misses on both
// devices, every allocation's
// layouts and which entries each holds, its metadata and stored streams, and
// every entry's sector count.

// refAccess is the reference's tier call: one access, a span of one.
func refAccess(b Backend, store bool, g, n int) {
	b.Access([]TierOp{{Entry: g, Bytes: int32(n), Store: store}})
}

// set places entry i in next: with has, the one way the tests reach a moved
// set.
func (m *migration) set(i int) {
	m.moved[i/EntriesPerMetadataLine] |= 1 << (i % EntriesPerMetadataLine)
}

// refMigrateEntry hands one entry from the committed layout to the epoch's
// next one — on the same device or another, re-encoded when their codecs
// differ — and returns the stored bytes it moved. An entry that will not
// re-encode is left where it is, with the error.
func refMigrateEntry(a *Allocation, mig *migration, i int) (int64, error) {
	a.mu.RLock()
	old, next := a.cur, mig.next
	sh := a.shard(i)
	sh.Lock()
	gOld, gNew := old.global(i), next.global(i)
	var devR, budR, devW, budW, stored, landed int
	if !mig.has(i) {
		if a.store.get(i) != nil {
			sectors := a.meta.Get(i)
			in := sectors
			if mig.transcode {
				var err error
				if in, err = a.transcode(old, mig, make([]byte, 0, MaxStreamBytes), i, sectors); err != nil {
					sh.Unlock()
					a.mu.RUnlock()
					return 0, err
				}
			}
			devR, budR = prices[old.target][sectors].dev, prices[old.target][sectors].spill
			devW, budW = prices[next.target][in].dev, prices[next.target][in].spill
			stored, landed = storedBytes(sectors), storedBytes(in)
		}
		mig.set(i)
	}
	sh.Unlock()
	if stored > 0 {
		from, to := old.dev, next.dev
		from.traffic.migrationBytes.Add(uint64(stored))
		if to != from {
			to.traffic.migrationBytes.Add(uint64(landed))
		}
		refAccess(&from.slab, false, gOld, devR)
		refAccess(&to.slab, true, gNew, devW)
		if budR > 0 {
			from.traffic.buddyReadBytes.Add(uint64(budR))
			refAccess(from.overflow, false, gOld, budR)
		}
		if budW > 0 {
			to.traffic.buddyWriteBytes.Add(uint64(budW))
			refAccess(to.overflow, true, gNew, budW)
		}
	}
	a.mu.RUnlock()
	return int64(stored), nil
}

// refExportEntry is ExportEntry's per-entry body.
func refExportEntry(a *Allocation, i int, dst []byte) (stream []byte, sectors int, written bool, err error) {
	a.mu.RLock()
	if a.freed {
		a.mu.RUnlock()
		return dst, 0, false, a.errFreed()
	}
	sh := a.shard(i)
	sh.Lock()
	l := home(a.cur, a.mig, i)
	g, d := l.global(i), l.dev
	sectors = a.meta.Get(i)
	written = a.store.get(i) != nil
	dst = append(dst, a.store.get(i)...)
	sh.Unlock()
	if written {
		stored := storedBytes(sectors)
		devR, budR := prices[l.target][sectors].dev, prices[l.target][sectors].spill
		d.traffic.migrationBytes.Add(uint64(stored))
		refAccess(&d.slab, false, g, devR)
		if budR > 0 {
			d.traffic.buddyReadBytes.Add(uint64(budR))
			refAccess(d.overflow, false, g, budR)
		}
	}
	a.mu.RUnlock()
	if !written {
		return dst, 0, false, nil
	}
	return dst, sectors, true, nil
}

// refImportEntry is ImportEntry's per-entry body.
func refImportEntry(a *Allocation, i int, stream []byte, sectors int) error {
	a.mu.RLock()
	if a.freed {
		a.mu.RUnlock()
		return a.errFreed()
	}
	sh := a.shard(i)
	sh.Lock()
	l := home(a.cur, a.mig, i)
	g, d := l.global(i), l.dev
	if d.failed.Load() {
		sh.Unlock()
		a.mu.RUnlock()
		return d.errFailed()
	}
	a.store.put(i, stream)
	a.meta.Set(i, sectors)
	sh.Unlock()
	stored := storedBytes(sectors)
	devW, budW := prices[l.target][sectors].dev, prices[l.target][sectors].spill
	d.traffic.migrationBytes.Add(uint64(stored))
	refAccess(&d.slab, true, g, devW)
	if budW > 0 {
		d.traffic.buddyWriteBytes.Add(uint64(budW))
		refAccess(d.overflow, true, g, budW)
	}
	a.mu.RUnlock()
	return nil
}

// refRebuild re-streams entries [lo, hi) from the carve-out copy, each
// charged to the device it lives on, and returns the entries and bytes
// rebuilt.
func refRebuild(a *Allocation, lo, hi int) (n, moved int64) {
	a.mu.RLock()
	for i := lo; i < hi; i++ {
		sh := a.shard(i)
		sh.Lock()
		l := home(a.cur, a.mig, i)
		sectors := a.meta.Get(i)
		written := a.store.get(i) != nil
		sh.Unlock()
		if !written {
			continue
		}
		g, d := l.global(i), l.dev
		stored := storedBytes(sectors)
		dev := prices[l.target][sectors].dev
		d.traffic.buddyReadBytes.Add(uint64(stored))
		refAccess(d.overflow, false, g, stored)
		refAccess(&d.slab, true, g, dev)
		n++
		moved += int64(stored)
	}
	a.mu.RUnlock()
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

// oracleTier is one overflow-tier set-up the oracles run under.
type oracleTier struct {
	name string
	host bool
	// fanout runs both worlds at the ambient width, so the kernel world's
	// spans fan out (the reference's per-entry steps do not): the
	// carve-out's accounting is sums, so spans racing each other must still
	// match it on every counter and on link occupancy. The host tier cannot
	// play — residency depends on the order pages are touched in. The
	// metadata cache can, once it is large enough never to evict: both
	// worlds get 4 MiB, so every line misses exactly once, on its first
	// access, in whatever order the spans run. Only `-cpu` above 1 fans a
	// span out.
	fanout bool
}

var oracleTiers = []oracleTier{
	{name: "carveout"}, {name: "host-um", host: true}, {name: "carveout-fanout", fanout: true},
}

// newRelocWorld builds a world. Outside fanout the rest of t runs with every
// span inline, in entry order: the pager's residency and the metadata cache's
// fills depend on it.
func newRelocWorld(t *testing.T, ref bool, tier oracleTier) *relocWorld {
	if !tier.fanout {
		serialSpans(t)
	}
	mk := func() *Device {
		cfg := Config{DeviceBytes: 8 << 20}
		if tier.host {
			cfg.Overflow = NewHostBackend(4<<10, 64<<10)
		}
		d := NewDevice(cfg)
		if tier.fanout {
			d.mcache = NewMetadataCache(4<<20, metadataCacheSlices, metadataCacheWays)
		}
		return d
	}
	return &relocWorld{ref: ref, src: mk(), dst: mk()}
}

// migratePart moves entries [lo, hi) of a into mig's next layout and returns
// the stored bytes moved.
func (w *relocWorld) migratePart(a *Allocation, mig *migration, lo, hi int) int64 {
	moved, err := w.tryMigrate(a, mig, lo, hi)
	if err != nil {
		panic(err)
	}
	return moved
}

// tryMigrate is migratePart that stops at an entry that will not re-encode,
// with the entries before it moved, and returns the error.
func (w *relocWorld) tryMigrate(a *Allocation, mig *migration, lo, hi int) (moved int64, err error) {
	if w.ref {
		for i := lo; i < hi && err == nil; i++ {
			var n int64
			n, err = refMigrateEntry(a, mig, i)
			moved += n
		}
		return moved, err
	}
	_, moved, err = part(a, relocMigrate, lo, hi)
	return moved, err
}

// part runs one piece of a pass of kind over a: entries [lo, hi). It
// returns the entries that held a stream and their stored bytes.
func part(a *Allocation, kind relocKind, lo, hi int) (entries, bytes int64, err error) {
	s := entrySpan{a: a, kind: kind, start: lo, n: hi - lo, first: hi - lo, chunk: hi - lo}
	s.Do(0)
	if p := s.err.Load(); p != nil {
		err = *p
	}
	return s.entries.Load(), s.bytes.Load(), err
}

// retarget is a whole Retarget of a through dev: the real call in the kernel
// world, the same three steps around the per-entry mover in the reference
// one, refusal included.
func (w *relocWorld) retarget(dev *Device, a *Allocation, target TargetRatio) (int64, error) {
	if !w.ref {
		return dev.Retarget(a, target)
	}
	if a.cur.dev != dev {
		return 0, errStale
	}
	if a.cur.target == target {
		return 0, nil
	}
	mig, err := a.beginRelayout(dev, target)
	if err != nil {
		return 0, err
	}
	moved := w.migratePart(a, mig, 0, a.EntryCount)
	a.commitRelayout(mig)
	return moved, nil
}

// transfer copies entries [lo, hi) of from into to as framed streams, one
// ExportEntry/ImportEntry pair per written entry.
func (w *relocWorld) transfer(from, to *Allocation, lo, hi int) error {
	export, install := (*Allocation).ExportEntry, (*Allocation).ImportEntry
	if w.ref {
		export, install = refExportEntry, refImportEntry
	}
	buf := make([]byte, 0, MaxStreamBytes)
	for i := lo; i < hi; i++ {
		stream, sectors, written, err := export(from, i, buf[:0])
		if err != nil {
			return err
		}
		if !written {
			continue
		}
		if err := install(to, i, stream, sectors); err != nil {
			return err
		}
	}
	return nil
}

// recoverSrc kills and rebuilds the source device and returns the entries
// and bytes rebuilt. With a relayout held open it cannot go through Recover
// (which waits on the ctl the test's open move stands for), so both sides
// run the rebuild walk over every listed allocation themselves — entries a
// half-run MoveTo has already carried to the other device included, charged
// where they live.
func (w *relocWorld) recoverSrc() (entries, rebuilt int64) {
	w.src.Fail()
	for _, a := range w.src.Allocations() {
		if w.ref {
			n, b := refRebuild(a, 0, a.EntryCount)
			entries, rebuilt = entries+n, rebuilt+b
			continue
		}
		// Odd split point: the second span starts on the upper half of a
		// metadata pair.
		mid := a.EntryCount/2 | 1
		if mid > a.EntryCount {
			mid = a.EntryCount
		}
		for _, span := range [][2]int{{0, mid}, {mid, a.EntryCount}} {
			n, b, err := part(a, relocRebuild, span[0], span[1])
			if err != nil {
				panic(err)
			}
			entries, rebuilt = entries+n, rebuilt+b
		}
	}
	w.src.failed.Store(false)
	return entries, rebuilt
}

// layoutState is one layout as the oracle compares it.
type layoutState struct {
	OnDst  bool
	Target TargetRatio
	Reg    region
}

// relocState is everything the oracle compares.
type relocState struct {
	Traffic            [2]Traffic
	Primary, Overflow  [2]BackendTraffic
	LinkRead, LinkWrit [2]float64
	MetaHits, MetaMiss [2]uint64       // metadata-cache lookups, summed over the device's slices
	Layouts            [][]layoutState // per allocation: committed, then next if a relayout is open
	Moved              [][]uint64      // per allocation with a relayout open: which entries next holds
	Meta               [][]uint64
	Streams            [][][]byte
	Sectors            [][]int
}

// sectorCount is entry i's last committed compressed sector count, read
// under the entry's shard lock.
func sectorCount(a *Allocation, i int) int {
	sh := a.shard(i)
	sh.Lock()
	defer sh.Unlock()
	return a.meta.Get(i)
}

func (w *relocWorld) state(extra ...*Allocation) relocState {
	var s relocState
	for k, d := range []*Device{w.src, w.dst} {
		s.Traffic[k] = d.Traffic()
		s.Primary[k] = d.slab.Traffic()
		s.Overflow[k] = d.overflow.Traffic()
		s.LinkRead[k], s.LinkWrit[k] = d.LinkOccupancy()
		s.MetaHits[k], s.MetaMiss[k] = metaLookups(d)
	}
	for _, a := range append(append([]*Allocation{}, w.allocs...), extra...) {
		ls := []layoutState{{a.cur.dev == w.dst, a.cur.target, a.cur.reg}}
		if m := a.mig; m != nil {
			ls = append(ls, layoutState{m.next.dev == w.dst, m.next.target, m.next.reg})
			s.Moved = append(s.Moved, slices.Clone(m.moved))
		}
		s.Layouts = append(s.Layouts, ls)
		s.Meta = append(s.Meta, slices.Clone(a.meta.planes))
		streams := make([][]byte, a.EntryCount)
		for i := range streams {
			if st := a.store.get(i); st != nil {
				streams[i] = bytes.Clone(st)
			}
		}
		s.Streams = append(s.Streams, streams)
		sc := make([]int, a.EntryCount)
		for i := range sc {
			sc[i] = sectorCount(a, i)
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
	for _, tier := range oracleTiers {
		t.Run(tier.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				worlds := [2]*relocWorld{newRelocWorld(t, false, tier), newRelocWorld(t, true, tier)}
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
					for n, a := range w.allocs {
						// A whole Retarget, then one held open half-way so the
						// transfers and the rebuild below meet a home that
						// splits mid-span.
						moved, err := w.retarget(w.src, a, AllRatios[r.Intn(len(AllRatios))])
						if err != nil {
							t.Fatal(err)
						}
						note(fmt.Sprintf("retarget %s to %s: %d bytes", a.Name, a.Target(), moved))
						half := AllRatios[(int(a.Target())+1+r.Intn(len(AllRatios)-1))%len(AllRatios)]
						mig, err := a.beginRelayout(w.src, half)
						if err != nil {
							t.Fatal(err)
						}
						cut := r.Intn(a.EntryCount + 1)
						moved = w.migratePart(a, mig, 0, cut)
						note(fmt.Sprintf("half-migrate %s to %s at %d: %d bytes", a.Name, half, cut, moved))

						to, err := w.dst.Malloc(a.Name, a.size, a.Target())
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

						rebuiltN, rebuiltB := w.recoverSrc()
						note(fmt.Sprintf("recover mid-migration: %d entries, %d bytes", rebuiltN, rebuiltB), to)

						moved += w.migratePart(a, mig, 0, a.EntryCount)
						a.commitRelayout(mig)
						note(fmt.Sprintf("finish %s: %d bytes", a.Name, moved), to)

						// The same again across devices: a MoveTo held open at a
						// random cut, under the ctl a real mover holds, while
						// spans, a stream hand-off in each direction and a
						// rebuild run over it and a Retarget waits its turn.
						a.ctl.Lock()
						queued := make(chan error, 1)
						back := AllRatios[(int(a.Target())+1)%len(AllRatios)]
						if !w.ref {
							go func() {
								_, err := w.src.Retarget(a, back)
								queued <- err
							}()
						}
						if mig, err = a.beginRelayout(w.dst, a.Target()); err != nil {
							t.Fatal(err)
						}
						cut = r.Intn(a.EntryCount + 1)
						moved = w.migratePart(a, mig, 0, cut)
						note(fmt.Sprintf("half-move %s to the other device at %d: %d bytes", a.Name, cut, moved), to)
						lo = r.Intn(a.EntryCount)
						hi = lo + 1 + r.Intn(a.EntryCount-lo)
						data := fillEntries(hi-lo, relocShapes, r.Uint64())
						if err := w.write(a, lo, data); err != nil {
							t.Fatal(err)
						}
						got := make([]byte, len(data))
						if err := w.read(a, lo, got); err != nil || !bytes.Equal(got, data) {
							t.Fatalf("seed %d: span [%d,%d) over the half-moved %s: err=%v match=%v", seed, lo, hi, a.Name, err, bytes.Equal(got, data))
						}
						note(fmt.Sprintf("write and read %s [%d,%d) mid-move", a.Name, lo, hi), to)
						if err := w.transfer(a, to, lo/2, hi); err != nil {
							t.Fatal(err)
						}
						if err := w.transfer(to, a, 0, a.EntryCount); err != nil {
							t.Fatal(err)
						}
						note(fmt.Sprintf("transfer %s out and back mid-move", a.Name), to)
						rebuiltN, rebuiltB = w.recoverSrc()
						note(fmt.Sprintf("recover mid-move: %d entries, %d bytes", rebuiltN, rebuiltB), to)
						select {
						case err := <-queued:
							t.Fatalf("seed %d: a Retarget ran over an open move: %v", seed, err)
						default:
						}
						// Hand back on one allocation, commit on the next.
						handBack := (int(seed)+n)%2 == 0
						if handBack {
							a.handBack(mig)
						}
						moved += w.migratePart(a, mig, 0, a.EntryCount)
						a.commitRelayout(mig)
						if on := a.Device(); handBack != (on == w.src) {
							t.Fatalf("seed %d: hand-back=%v left %s on the wrong device", seed, handBack, a.Name)
						}
						note(fmt.Sprintf("finish the move of %s (hand-back %v): %d bytes", a.Name, handBack, moved), to)
						a.ctl.Unlock()
						// The queued Retarget runs now: refused if the
						// allocation left the device it was asked through.
						var err2 error
						if w.ref {
							_, err2 = w.retarget(w.src, a, back)
						} else {
							err2 = <-queued
						}
						if handBack == errors.Is(err2, errStale) || (handBack && err2 != nil) {
							t.Fatalf("seed %d: queued Retarget after hand-back=%v: %v", seed, handBack, err2)
						}
						note(fmt.Sprintf("queued retarget of %s to %s", a.Name, back), to)
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

// metaLookups returns d's metadata-cache hits and misses, summed over its
// slices.
func metaLookups(d *Device) (hits, misses uint64) {
	mc := d.mcache
	for i, c := range mc.slices {
		mc.locks[i].Lock()
		hits, misses = hits+c.Hits(), misses+c.Misses()
		mc.locks[i].Unlock()
	}
	return hits, misses
}

// summary is a relocState without the bulk (streams, metadata, sectors),
// for failure messages.
func summary(s relocState) any {
	return struct {
		Traffic            [2]Traffic
		Primary, Overflow  [2]BackendTraffic
		LinkRead, LinkWrit [2]float64
		MetaHits, MetaMiss [2]uint64
	}{s.Traffic, s.Primary, s.Overflow, s.LinkRead, s.LinkWrit, s.MetaHits, s.MetaMiss}
}

// TestLineHandOverMatchesPerEntry holds the mover's line hand-over to the
// per-entry reference, refMigrateEntry, wherever a line can be cut: every
// (committed, next) pair of AllRatios, 16x included; on the same device, on
// another one, and on another that frames streams with a different codec;
// over the carve-out and over a host tier whose one-page pager faults on
// every change of page, so the order of a line's overflow ops shows. Each
// relayout of an allocation whose last line is partial is held open at a cut
// (inside the first line, around line boundaries, one before the end), then
// finished forward from mid-line or handed back. Its lines are one of each
// shape the hand-over prices differently: mixed classes; all zero, which
// spills under no target, with never-written entries between written zero
// ones; all incompressible, which spills under every target but 1x and in
// full under 16x; mixed again with a gap, in the partial tail. The failure
// cases cut one stream of the incompressible line short mid-line, so a move
// between codecs stops there and is handed back, as MoveTo does. After every
// step the worlds must agree on all relocState compares: Traffic,
// MigrationBytes included, both tiers' BackendTraffic, pager faults included,
// and the metadata cache's hits and misses, on both devices, and the moved
// words.
func TestLineHandOverMatchesPerEntry(t *testing.T) {
	const line, entries, corruptAt = EntriesPerMetadataLine, 3*EntriesPerMetadataLine + 37, 2*EntriesPerMetadataLine + 22
	bdi, err := compress.ByName("bdi")
	if err != nil {
		t.Fatal(err)
	}
	data := slices.Concat(fillEntries(line, relocShapes, 29), fillEntries(line, []gen.Generator{gen.Zeros{}}, 30),
		fillEntries(line, []gen.Generator{gen.Random{}}, 31), fillEntries(entries-3*line, relocShapes, 32))
	for _, c := range []struct {
		name      string
		host, far bool
		codec     compress.Codec // the far device's; nil for the default
		corrupt   bool           // cut entry corruptAt's stream short: it will not re-encode
	}{
		{"carveout/same-device", false, false, nil, false}, {"carveout/other-device", false, true, nil, false},
		{"carveout/transcode", false, true, bdi, false}, {"host/same-device", true, false, nil, false},
		{"host/other-device", true, true, nil, false}, {"host/transcode", true, true, bdi, false},
		{"carveout/transcode-failure", false, true, bdi, true}, {"host/transcode-failure", true, true, bdi, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			serialSpans(t) // inline, in entry order: the pager's residency depends on it
			mk := func(codec compress.Codec) *Device {
				cfg := Config{DeviceBytes: 1 << 20, Codec: codec}
				if c.host {
					cfg.Overflow = NewHostBackend(1<<10, 1<<10)
				}
				return NewDevice(cfg)
			}
			for _, from := range AllRatios {
				for _, to := range AllRatios {
					for _, cut := range []int{1, 63, 64, 65, 127, entries - 1} {
						for _, back := range []bool{false, true} {
							var states [2][]relocState
							var failed [2][]bool // per step: it stopped at the corrupt entry
							for k := range states {
								w := &relocWorld{ref: k == 1, src: mk(nil), dst: mk(c.codec)}
								a, err := w.src.Malloc("line", entries*EntryBytes, from)
								if err != nil {
									t.Fatal(err)
								}
								w.allocs = []*Allocation{a}
								for _, run := range [][2]int{{0, 70}, {80, 200}, {210, entries}} {
									if err := a.WriteEntries(run[0], data[run[0]*EntryBytes:run[1]*EntryBytes]); err != nil {
										t.Fatal(err)
									}
								}
								if c.corrupt {
									corruptStream(a, corruptAt, 1)
								}
								dev := w.src
								if c.far {
									dev = w.dst
								}
								mig, err := a.beginRelayout(dev, to)
								if err != nil {
									t.Fatal(err)
								}
								step := func(lo, hi int) {
									_, err := w.tryMigrate(a, mig, lo, hi)
									if err != nil && !errors.Is(err, compress.ErrCorrupt) {
										t.Fatal(err)
									}
									failed[k] = append(failed[k], err != nil)
									states[k] = append(states[k], w.state())
								}
								step(0, cut)
								if back {
									a.handBack(mig)
								} else {
									step(cut/2|1, entries)
								}
								if !mig.back && slices.Contains(failed[k], true) {
									a.handBack(mig)
								}
								step(0, entries)
								a.commitRelayout(mig)
								states[k] = append(states[k], w.state())
							}
							if !reflect.DeepEqual(failed[0], failed[1]) || c.corrupt && !back && !failed[0][1] {
								t.Fatalf("%s->%s cut %d hand-back %v: steps stopped at the corrupt entry: line %v, per entry %v",
									from, to, cut, back, failed[0], failed[1])
							}
							for i := range states[0] {
								if !reflect.DeepEqual(states[0][i], states[1][i]) {
									t.Fatalf("%s->%s cut %d hand-back %v, step %d: line and per-entry hand-over diverge\n line      %+v\n per entry %+v",
										from, to, cut, back, i, summary(states[0][i]), summary(states[1][i]))
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestTransferChargesSourceAfterCommit keeps its name from the days a
// cross-device move was a TransferEntries copy that charged its source only
// once the destination had committed; it pins what that rule was for, against
// MoveTo. A destination that refuses the move before it starts — its tier is
// down, it has no room — or an allocation that is gone leaves no trace on
// either device: nothing reserved, nothing listed, nothing charged. A
// destination that dies part-way gets the entries it took handed back, and
// then what left each device equals what arrived at the other.
func TestTransferChargesSourceAfterCommit(t *testing.T) {
	serialSpans(t) // the move runs inline: sub-batches in order
	src := NewDevice(Config{DeviceBytes: 4 << 20})
	dst := NewDevice(Config{DeviceBytes: 4 << 20})
	const entries = 2*spanBatchEntries + 37
	a, err := src.Malloc("m", entries*EntryBytes, Target4x)
	if err != nil {
		t.Fatal(err)
	}
	data := fillEntries(entries, relocShapes, 5)
	if err := a.WriteEntries(0, data); err != nil {
		t.Fatal(err)
	}
	src.ResetTraffic()
	untouched := func(when string) {
		t.Helper()
		if st, dt := src.Traffic(), dst.Traffic(); st != (Traffic{}) || dt != (Traffic{}) {
			t.Fatalf("%s was charged: source %+v destination %+v", when, st, dt)
		}
		if p, o := src.slab.Traffic(), src.overflow.Traffic(); p != (BackendTraffic{}) || o != (BackendTraffic{}) {
			t.Fatalf("%s touched the source tiers: %+v %+v", when, p, o)
		}
		if dst.DeviceUsed() != 0 || dst.BuddyUsed() != 0 || dst.AllocationCount() != 0 {
			t.Fatalf("%s left the destination holding %d+%d bytes, %d allocations",
				when, dst.DeviceUsed(), dst.BuddyUsed(), dst.AllocationCount())
		}
		if a.Device() != src || a.Migrating() {
			t.Fatalf("%s moved the allocation", when)
		}
	}

	dst.Fail()
	if _, err := a.MoveTo(dst, a.Target()); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("move into a failed device: %v, want ErrDeviceFailed", err)
	}
	untouched("a move into a failed device")
	if _, _, err := dst.Recover(); err != nil {
		t.Fatal(err)
	}

	full := NewDevice(Config{DeviceBytes: entries * 16}) // half a Target4x layout
	if _, err := a.MoveTo(full, a.Target()); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("move into a full device: %v, want ErrOutOfMemory", err)
	}
	untouched("a move into a full device")

	gone, err := src.Malloc("gone", EntryBytes, Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := gone.MoveTo(dst, gone.Target()); !errors.Is(err, ErrFreed) {
		t.Fatalf("move of a freed allocation: %v, want ErrFreed", err)
	}
	untouched("a move of a freed allocation")

	// One clean sub-batch, then the destination dies: the move is handed
	// back, and both sides were charged the same bytes — the prefix over and
	// back.
	mig, err := a.beginRelayout(dst, Target4x)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := part(a, relocMigrate, 0, spanBatchEntries); err != nil {
		t.Fatal(err)
	}
	dst.Fail()
	if _, _, err := part(a, relocMigrate, spanBatchEntries, entries); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("mover after the destination died: %v, want ErrDeviceFailed", err)
	}
	a.handBack(mig)
	if _, _, err := part(a, relocMigrate, 0, entries); err != nil {
		t.Fatalf("hand-back: %v", err)
	}
	a.commitRelayout(mig)
	st, dt := src.Traffic(), dst.Traffic()
	if st.MigrationBytes == 0 || st.MigrationBytes != dt.MigrationBytes {
		t.Errorf("MigrationBytes out=%d in=%d, want equal and nonzero", st.MigrationBytes, dt.MigrationBytes)
	}
	if st.DeviceReadBytes != dt.DeviceWriteBytes || st.DeviceWriteBytes != dt.DeviceReadBytes {
		t.Errorf("placement bytes do not mirror: source %+v destination %+v", st, dt)
	}
	src.ResetTraffic()
	dst.ResetTraffic()
	untouched("a handed-back move, once the counters are reset,")
	got := make([]byte, len(data))
	if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the hand-back: err=%v match=%v", err, bytes.Equal(got, data))
	}
}

// halfMoved runs the rest of t with spans inline and builds two devices —
// the second with codec c, nil for the default both then share — and an
// allocation of 2 sub-batches written in full, with a MoveTo to the second
// device held open after its first sub-batch: entries [0, spanBatchEntries)
// live on dst, the rest on src.
func halfMoved(t *testing.T, c compress.Codec) (src, dst *Device, a *Allocation, mig *migration, data []byte) {
	t.Helper()
	serialSpans(t)
	src = NewDevice(Config{DeviceBytes: 4 << 20})
	dst = NewDevice(Config{DeviceBytes: 4 << 20, Codec: c})
	const entries = 2 * spanBatchEntries
	a, err := src.Malloc("half", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data = fillEntries(entries, relocShapes, 41)
	if err := a.WriteEntries(0, data); err != nil {
		t.Fatal(err)
	}
	if mig, err = a.beginRelayout(dst, Target2x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := part(a, relocMigrate, 0, spanBatchEntries); err != nil {
		t.Fatal(err)
	}
	src.ResetTraffic()
	dst.ResetTraffic()
	return src, dst, a, mig, data
}

// TestRelayoutLiveness pins which device has to be alive for what while a
// move has an allocation's entries on two of them (relocate's doc comment):
// a data span ends at the first entry whose home is down, with what came
// before it delivered and accounted; the mover needs its destination and
// never its source; handing back needs neither.
func TestRelayoutLiveness(t *testing.T) {
	const cut, entries = spanBatchEntries, 2 * spanBatchEntries
	t.Run("span ends where the dead home begins", func(t *testing.T) {
		src, dst, a, _, data := halfMoved(t, nil)
		src.Fail()
		// [cut-3, cut) is alive on dst, [cut, cut+3) dead on src; cut-3 is odd,
		// so the span opens on the upper half of a metadata pair.
		got := make([]byte, 6*EntryBytes)
		err := a.ReadEntries(cut-3, got)
		if !errors.Is(err, ErrDeviceFailed) {
			t.Fatalf("read across the cut: %v, want ErrDeviceFailed", err)
		}
		if !bytes.Equal(got[:3*EntryBytes], data[(cut-3)*EntryBytes:cut*EntryBytes]) {
			t.Error("the entries before the dead one were not delivered")
		}
		if r, dead := dst.Traffic().Reads, src.Traffic(); r != 3 || dead != (Traffic{}) {
			t.Errorf("accounted %d reads on the live device and %+v on the dead one, want 3 and nothing", r, dead)
		}
		fresh := fillEntries(6, relocShapes, 43)
		if err := a.WriteEntries(cut-3, fresh); !errors.Is(err, ErrDeviceFailed) {
			t.Fatalf("write across the cut: %v, want ErrDeviceFailed", err)
		}
		if w, dead := dst.Traffic().Writes, src.Traffic(); w != 3 || dead != (Traffic{}) {
			t.Errorf("accounted %d writes on the live device and %+v on the dead one, want 3 and nothing", w, dead)
		}
		src.failed.Store(false)
		copy(data[(cut-3)*EntryBytes:], fresh[:3*EntryBytes])
		all := make([]byte, len(data))
		if err := a.ReadEntries(0, all); err != nil || !bytes.Equal(all, data) {
			t.Fatalf("after the refused write: err=%v, exactly the live prefix stored=%v", err, bytes.Equal(all, data))
		}
		// The stream hand-off follows the same rule, entry by entry.
		dst.Fail()
		stream, sectors, written, err := a.ExportEntry(0, nil)
		if err != nil || !written {
			t.Fatalf("export off a dead home: written=%v err=%v", written, err)
		}
		if err := a.ImportEntry(0, stream, sectors); !errors.Is(err, ErrDeviceFailed) {
			t.Errorf("import into a dead home: %v, want ErrDeviceFailed", err)
		}
		if err := a.ImportEntry(cut, stream, sectors); err != nil {
			t.Errorf("import into a live home: %v", err)
		}
	})
	t.Run("moving off a failed device works", func(t *testing.T) {
		src, dst, a, mig, data := halfMoved(t, nil)
		src.Fail()
		if _, _, err := part(a, relocMigrate, 0, entries); err != nil {
			t.Fatalf("mover off a dead source: %v", err)
		}
		a.commitRelayout(mig)
		got := make([]byte, len(data))
		if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data) || a.Device() != dst {
			t.Fatalf("after evacuating: err=%v match=%v", err, bytes.Equal(got, data))
		}
		if src.DeviceUsed() != 0 || src.AllocationCount() != 0 {
			t.Errorf("the evacuated device still holds %d bytes, %d allocations", src.DeviceUsed(), src.AllocationCount())
		}
	})
	t.Run("the hand-back checks nothing", func(t *testing.T) {
		src, dst, a, mig, data := halfMoved(t, nil)
		dst.Fail()
		if _, _, err := part(a, relocMigrate, cut, entries); !errors.Is(err, ErrDeviceFailed) {
			t.Fatalf("mover into a dead destination: %v, want ErrDeviceFailed", err)
		}
		src.Fail() // both down: the entries still have to come home
		a.handBack(mig)
		if _, _, err := part(a, relocMigrate, 0, entries); err != nil {
			t.Fatalf("hand-back with both devices down: %v", err)
		}
		a.commitRelayout(mig)
		if out, in := dst.Traffic().MigrationBytes, src.Traffic().MigrationBytes; out == 0 || out != in {
			t.Errorf("hand-back MigrationBytes: %d left the destination, %d arrived", out, in)
		}
		if _, _, err := src.Recover(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data) || a.Device() != src {
			t.Fatalf("after the hand-back: err=%v match=%v", err, bytes.Equal(got, data))
		}
		if dst.DeviceUsed() != 0 || dst.AllocationCount() != 0 {
			t.Errorf("the abandoned destination still holds %d bytes, %d allocations", dst.DeviceUsed(), dst.AllocationCount())
		}
	})
}

// TestMoveToAcrossCodecs moves an allocation between devices that frame
// streams differently: every written entry is decoded and encoded afresh —
// by the mover, and by a write that lands on the far side mid-move — and a
// stream that will not decode aborts the move, handed back, with the decode
// error wrapped: no panic, nothing lost.
func TestMoveToAcrossCodecs(t *testing.T) {
	bdi, err := compress.ByName("bdi")
	if err != nil {
		t.Fatal(err)
	}
	src, dst, a, mig, data := halfMoved(t, bdi)
	const cut, entries = spanBatchEntries, 2 * spanBatchEntries
	// A span across the cut: its first half is framed for dst's codec under
	// the lock, its second for src's before it.
	fresh := fillEntries(8, relocShapes, 47)
	if err := a.WriteEntries(cut-4, fresh); err != nil {
		t.Fatal(err)
	}
	copy(data[(cut-4)*EntryBytes:], fresh)
	if _, _, err := part(a, relocMigrate, 0, entries); err != nil {
		t.Fatal(err)
	}
	a.commitRelayout(mig)
	got := make([]byte, len(data))
	if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data) || a.Device() != dst {
		t.Fatalf("after the transcoding move: err=%v match=%v", err, bytes.Equal(got, data))
	}
	if out, in := src.Traffic().MigrationBytes, dst.Traffic().MigrationBytes; out == 0 || in == 0 {
		t.Errorf("MigrationBytes source %d destination %d, want both charged", out, in)
	}

	// Back again, through MoveTo, with one stream cut short.
	bad := cut + 5
	corruptStream(a, bad, 1)
	_, err = a.MoveTo(src, a.Target())
	if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d", bad)) {
		t.Fatalf("move over a corrupt stream: %v, want ErrCorrupt naming entry %d", err, bad)
	}
	if a.Device() != dst || a.Migrating() || src.DeviceUsed() != 0 || src.AllocationCount() != 0 {
		t.Fatalf("aborted move left the allocation on src=%v migrating=%v, %d bytes reserved there",
			a.Device() == src, a.Migrating(), src.DeviceUsed())
	}
	if err := a.ReadEntries(0, got[:bad*EntryBytes]); err != nil || !bytes.Equal(got[:bad*EntryBytes], data[:bad*EntryBytes]) {
		t.Fatalf("entries before the corrupt one after the abort: err=%v", err)
	}
	if err := a.ReadEntries(bad+1, got[(bad+1)*EntryBytes:]); err != nil || !bytes.Equal(got[(bad+1)*EntryBytes:], data[(bad+1)*EntryBytes:]) {
		t.Fatalf("entries after the corrupt one after the abort: err=%v", err)
	}
}
