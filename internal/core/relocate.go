package core

import (
	"fmt"

	"buddy/internal/compress"
)

// The entry-table walker: one span visitor, relocate, is the only code that
// walks an allocation's entries. Every operation on an entry is the same five
// steps (§3.3 gives each entry one fixed device slot and one fixed buddy
// slot): lock its shard, resolve its home, touch its stream, set or read its
// metadata, charge the two tiers. The data path (WriteEntries/ReadEntries,
// and WriteEntry/ReadEntry as spans of one) and every mover — a relayout
// (Retarget, ApplyReprofile and MoveTo: committed layout to next layout, on
// one device or across two), ExportEntry/ImportEntry (a framed stream out of
// or into an entry) and Recover (re-stream from the carve-out copy) — are
// passes of it that differ only in what happens to an entry before, under
// and after its shard lock (table in DESIGN.md "The entry-table walker").
//
// A pass takes a.mu read-locked once per sub-batch of spanBatchEntries
// entries and never across one, both entries of a metadata pair share one
// acquisition of their shard lock, and the Traffic counters and the slab's
// meter are flushed once per sub-batch from a relocTally — two of them while
// a relayout has the allocation's entries on two devices. Per entry stay its
// home, resolved under the shard lock (an in-flight relayout splits a span
// between two layouts), and the metadata-cache lookup of a data access. The
// overflow tier gets the sub-batch's accesses as one span, Backend.Access, in
// the order they happened: the carve-out only sums them (link occupancy is
// bytes over rate), the host tier's pager replays them. Every total equals
// visiting the entries one at a time.

// relocKind selects what a pass does to each entry. The order matters twice:
// kinds from relocImport on need the entry's device tier alive, kinds from
// relocWrite on are the data path (counted as entry accesses, metadata cache
// consulted).
type relocKind uint8

const (
	relocMigrate relocKind = iota // hand the entry to the relayout's next layout
	relocExport                   // snapshot the framed stream into the staging buffer
	relocRebuild                  // re-stream from the carve-out copy into the device tier
	relocImport                   // install the staged framed stream
	relocWrite                    // encode from the span buffer and commit
	relocRead                     // snapshot and decode into the span buffer
)

// relocTally is the traffic one sub-batch of a pass owes its device. ops
// grows into the pass's scratch, which has room for a whole sub-batch.
type relocTally struct {
	migration         uint64 // Traffic.MigrationBytes
	devRead, devWrite uint64
	budRead, budWrite uint64
	loads, stores     int      // device-slab accesses behind devRead/devWrite
	fills             int      // metadata-cache misses: one 32 B device read each (§3.2)
	ops               []TierOp // overflow-tier accesses, in the order they happened
}

// access charges a read (or, with store, a write) of an entry's placement
// under target tr.
func (t *relocTally) access(store bool, g int, tr TargetRatio, sectors int) {
	dev, bud := splitBytes(tr, sectors)
	if store {
		t.devWrite += uint64(dev)
		t.stores++
	} else {
		t.devRead += uint64(dev)
		t.loads++
	}
	if bud > 0 {
		t.tier(store, g, bud)
	}
}

// tier records one overflow-tier access: the one place an op joins the list.
func (t *relocTally) tier(store bool, g, n int) {
	if store {
		t.budWrite += uint64(n)
	} else {
		t.budRead += uint64(n)
	}
	t.ops = append(t.ops, TierOp{Entry: g, Bytes: int32(n), Store: store})
}

// flush charges the tally to d, empties it and returns what it charged: the
// single place anything is charged, so the sum of a pass's flushes is the
// ledgers' delta. Only a data pass's accesses count as
// Traffic.Reads/Writes/BuddyAccesses, the buddy-access fraction of Fig. 7/9: a
// relocation moves stored bytes. Device bytes go to the slab's meter alone,
// metadata fills among them, buddy bytes to the device's and the tier's
// (Device.Traffic).
//
//buddy:hotpath
func (t *relocTally) flush(d *Device, data bool) Cost {
	if t.migration != 0 {
		d.traffic.migrationBytes.Add(t.migration)
	}
	fill := uint64(t.fills) * MetadataLineBytes
	if fill != 0 {
		d.traffic.metadataFillBytes.Add(fill)
	}
	d.slab.add(t.loads+t.fills, t.stores, t.devRead+fill, t.devWrite)
	if data && t.loads != 0 {
		d.traffic.reads.Add(uint64(t.loads))
	}
	if data && t.stores != 0 {
		d.traffic.writes.Add(uint64(t.stores))
	}
	if len(t.ops) != 0 {
		if data {
			d.traffic.buddyAccesses.Add(uint64(len(t.ops)))
		}
		if t.budRead != 0 {
			d.traffic.buddyReadBytes.Add(t.budRead)
		}
		if t.budWrite != 0 {
			d.traffic.buddyWriteBytes.Add(t.budWrite)
		}
		d.overflow.Access(t.ops)
	}
	c := Cost{DeviceBytes: t.devRead + fill + t.devWrite, LinkRead: t.budRead, LinkWrite: t.budWrite}
	*t = relocTally{ops: t.ops[:0]}
	return c
}

// relocPass is one pass of the walker over a range of one allocation's
// entries: what to do, the buffers to do it with, and what it did. Nothing
// in one is shared between span workers.
type relocPass struct {
	kind relocKind

	// relocWrite and relocRead: entry base+k's 128 bytes are
	// stage[k*EntryBytes:][:EntryBytes], the span's flat buffer.
	// relocExport and relocImport are spans of one: the entry's framed
	// stream is appended to, or is, the staging buffer, and sectors its
	// sector class — out of an export, into an import.
	base    int
	sectors int

	entries int   // entries that held a stream (relocation kinds)
	bytes   int64 // their stored bytes
	cost    Cost  // what the pass's flushes charged, both devices together
	// tally is owed to the committed layout's device; far to the device of a
	// relayout's next layout when that is another one. When it is the same
	// device everything lands in tally: one list keeps an entry's read of
	// its old slot and write of its new one in the order they happen, which
	// the pager's residency and the per-entry reference depend on.
	tally, far relocTally
}

// tallyOf is the tally accesses to layout l are charged to, cur being the
// committed layout.
func (p *relocPass) tallyOf(l, cur *layout) *relocTally {
	if l.dev == cur.dev {
		return &p.tally
	}
	return &p.far
}

// relocate runs pass p over entries [lo, hi) of a. stage is the staging
// buffer: an export appends the framed stream to it and returns it extended,
// an import reads the stream from it, a write encodes the entries in it and
// a read decodes into it; the other kinds pass nil. pair is where the data
// kinds stage a metadata pair's framed streams between the codec and the
// table. Both travel beside the pass: the codec is an
// interface, so whatever reached it through p would move every buffer p
// refers to — a ReadAt caller's buffer included — to the heap.
//
// Liveness. freed is checked once per sub-batch under the a.mu read lock, so
// ErrFreed means no entry of that sub-batch or after it was touched. With no
// relayout in flight the same holds for ErrDeviceFailed: the kinds that need
// the device tier check it once per sub-batch, all or nothing. While one is
// in flight the entries may sit on two devices, so those kinds check each
// entry's home instead and end the pass at the first entry whose device is
// down, the way a decode error ends a read: what was accounted up to there is
// flushed, the entries before it are delivered. The mover itself checks the
// device it is moving to, once per sub-batch — never the one it is moving
// off, which is how a dead tier is evacuated, and nothing at all when
// handing back. A read's decode error, and a mover's when it has to
// re-encode, ends the pass the same way.
//
//buddy:hotpath
func (a *Allocation) relocate(p *relocPass, pair *[2][]byte, stage []byte, lo, hi int) ([]byte, error) {
	for b := lo; b < hi; {
		e := min(b+spanBatchEntries, hi)
		a.mu.RLock()
		if a.freed {
			a.mu.RUnlock()
			return stage, a.errFreed()
		}
		cur, m := a.cur, a.mig
		far := cur.dev // the other device a relayout has entries on, if it is another
		if m != nil {
			far = m.next.dev
		}
		var needs *Device // the device this whole sub-batch cannot run without, if any
		switch {
		case m == nil && p.kind >= relocImport:
			needs = cur.dev
		case m != nil && p.kind == relocMigrate && !m.back:
			needs = far
		}
		if needs != nil && needs.failed.Load() {
			a.mu.RUnlock()
			return stage, needs.errFailed()
		}
		var err error
		if p.kind >= relocWrite {
			err = p.accessBatch(a, cur, m, pair, stage, b, e)
		} else {
			l, t := cur, &p.tally // every entry's home and tally, outside a relayout
			for i := b; i < e && err == nil; {
				n := a.pairLen(i, e)
				sh := a.shard(i)
				sh.Lock()
				for k := i; k < i+n && err == nil; k++ {
					if p.kind == relocMigrate {
						err = p.handOver(a, cur, m, pair, k)
						continue
					}
					if m != nil {
						l = home(cur, m, k) // under the shard lock: whichever layout owns k now
						t = p.tallyOf(l, cur)
					}
					switch p.kind {
					case relocExport:
						stage = p.snapshot(a, l, t, k, stage)
					case relocImport:
						if m != nil && l.dev.failed.Load() {
							err = l.dev.errFailed()
						} else {
							p.install(a, l, t, k, stage)
						}
					case relocRebuild:
						p.restream(a, l, t, k)
					}
				}
				sh.Unlock()
				i += n
			}
		}
		a.mu.RUnlock()
		p.cost.add(p.tally.flush(cur.dev, p.kind >= relocWrite))
		if far != cur.dev {
			p.cost.add(p.far.flush(far, p.kind >= relocWrite))
		}
		if err != nil {
			return stage, err
		}
		b = e
	}
	return stage, nil
}

// pairLen is how many entries from i, within a sub-batch ending at e, share
// one acquisition of their shard lock: two when i is the lower half of a
// metadata pair and its upper half is in range.
func (a *Allocation) pairLen(i, e int) int {
	if i+1 < e && i&1 == 0 {
		return 2
	}
	return 1
}

// appendEntry appends src's framed stream under c to dst and returns it with
// the entry's sector class. All-zero entries short-circuit the codec — one
// 16-word probe, and the precomputed per-codec zero stream is
// frame-identical to an encode; sparse activation traffic is mostly this.
func appendEntry(c compress.Codec, dst, src []byte) ([]byte, int) {
	var bits int
	if compress.EntryAllZero(src) {
		dst, bits = compress.AppendZeroEntry(dst, c)
	} else {
		dst, bits = c.AppendCompressed(dst, src)
	}
	return dst, compress.SectorsForBits(bits)
}

// accessBatch is the data path's step over one sub-batch [b, e), pair by
// pair. A write is an import with an encode before the lock: both entries of
// a pair are encoded into the pair buffers first, then metadata and streams
// commit under the lock — the pair's streams in one put, a copy into the index
// or in place in the entry's slot while the stream keeps its class, so the
// steady state allocates nothing; a stream no entry can hold ends the pass
// before its entry is touched. A read is an export with a decode after the
// lock: stream and metadata are snapshotted under it (writers rewrite the
// index and slots in place, so the reference must not leave it) and decoded
// straight into the caller's buffer — cleared, not decoded, when the stream is
// the codec's encoding of the all-zero entry, charged all the same.
// Never-written entries read as zero, like fresh cudaMalloc pages, and still
// cost the minimum access. Each entry looks up its device's metadata cache
// and is charged before its decode, so a decode error leaves exactly the
// entries up to and including the failing one accounted. While a relayout is
// in flight an entry whose home device is down ends the pass before it is
// touched, and a write that finds its home under the other codec is encoded
// again, under the lock: only there is its home known. The pair loop and its
// arrays live here, not in relocate's, where the relocation kinds would pay
// for them (measured: +4 % on Recover's 20 ns per entry).
//
//buddy:hotpath
func (p *relocPass) accessBatch(a *Allocation, cur *layout, m *migration, pair *[2][]byte, data []byte, b, e int) error {
	write, st := p.kind == relocWrite, &a.store
	for i := b; i < e; {
		n := a.pairLen(i, e)
		var (
			homes [2]*layout // set while a relayout is in flight
			secs  [2]int
			down  error // ends the pass after the pair's entries before it
		)
		if write {
			for k := 0; k < n; k++ {
				pair[k], secs[k] = appendEntry(cur.dev.cfg.Codec, pair[k][:0], data[(i+k-p.base)*EntryBytes:][:EntryBytes])
			}
		}
		sh := a.shard(i)
		sh.Lock()
		for k := 0; k < n; k++ {
			if m != nil {
				l := home(cur, m, i+k) // a write lands in whichever layout owns the entry at commit
				if l.dev.failed.Load() {
					n, down = k, l.dev.errFailed()
					break
				}
				if write && m.transcode && l != cur {
					pair[k], secs[k] = appendEntry(l.dev.cfg.Codec, pair[k][:0], data[(i+k-p.base)*EntryBytes:][:EntryBytes])
				}
				homes[k] = l
			}
			if write {
				if len(pair[k]) == 0 || len(pair[k]) > MaxStreamBytes { // only here is the codec that framed it settled
					n, down = k, a.errStream(i+k, len(pair[k]))
					break
				}
				a.meta.Set(i+k, secs[k])
			} else {
				secs[k] = a.meta.Get(i + k)
				pair[k] = append(pair[k][:0], st.get(i+k)...) // empty: never written
			}
		}
		if write {
			st.put(i, pair[:n]...) // the pair at once: the store's lock at most once
		}
		sh.Unlock()
		l, t := cur, &p.tally // every entry's home and tally, outside a relayout
		for k := 0; k < n; k++ {
			if m != nil {
				l = homes[k]
				t = p.tallyOf(l, cur)
			}
			g := l.global(i + k)
			if l.dev.metadataMiss(g) {
				t.fills++
			}
			t.access(write, g, l.target, secs[k])
			if write {
				continue
			}
			out := data[(i+k-p.base)*EntryBytes:][:EntryBytes]
			if len(pair[k]) == 0 || secs[k] == 0 && compress.IsZeroEntryStream(l.dev.cfg.Codec, pair[k]) {
				clear(out)
			} else if err := l.dev.cfg.Codec.DecompressInto(out, pair[k]); err != nil {
				return fmt.Errorf("core: entry %d of %s: %w", i+k, a.Name, err)
			}
		}
		if down != nil {
			return down
		}
		i += n
	}
	return nil
}

// handOver gives entry k, placed in the committed layout cur, to the
// relayout's next layout. The stream stays where it is, untouched, unless the
// two devices frame streams differently; what changes hands is the entry's
// place: its old slot is read on cur's device and its new one written on
// next's, and when those differ both count the stored bytes as migration
// traffic. Never-written entries have nothing to move; flipping the epoch
// bit is enough.
func (p *relocPass) handOver(a *Allocation, cur *layout, m *migration, scratch *[2][]byte, k int) error {
	if m.moved[k] {
		return nil
	}
	next := m.next
	if st := &a.store; st.written(k) {
		sectors := a.meta.Get(k)
		landed := sectors
		if m.transcode {
			s, n, err := transcode(cur.dev.cfg.Codec, next.dev.cfg.Codec, st.get(k), scratch[0][:0])
			switch {
			case err == nil:
				st.put(k, s)
				landed = n
				a.meta.Set(k, n)
			case !m.back:
				return fmt.Errorf("core: entry %d: %w", k, err)
			}
			// Handing back, an entry that will not decode goes home as it
			// is: it has to go somewhere, and its next read reports it.
		}
		to := p.tallyOf(next, cur)
		p.tally.access(false, cur.global(k), cur.target, sectors)
		to.access(true, next.global(k), next.target, landed)
		p.count(&p.tally, sectors)
		if to != &p.tally {
			to.migration += uint64(storedBytes(landed))
		}
	}
	m.moved[k] = true
	return nil
}

// transcode re-frames one stored stream for another codec: decoded with
// from, encoded afresh with to onto dst. The mover's only use of a codec, and
// only between devices that disagree on one.
func transcode(from, to compress.Codec, stream, dst []byte) ([]byte, int, error) {
	buf := entryScratchPool.Get().(*[EntryBytes]byte)
	defer entryScratchPool.Put(buf)
	if err := from.DecompressInto(buf[:], stream); err != nil {
		return dst, 0, err
	}
	dst, sectors := appendEntry(to, dst, buf[:])
	if len(dst) == 0 || len(dst) > MaxStreamBytes {
		return dst, 0, fmt.Errorf("re-framed as %d bytes, want 1 to %d: %w", len(dst), MaxStreamBytes, compress.ErrCorrupt)
	}
	return dst, sectors, nil
}

// snapshot appends entry k's framed stream to stage, charged to its place in
// l.
func (p *relocPass) snapshot(a *Allocation, l *layout, t *relocTally, k int, stage []byte) []byte {
	if stream := a.store.get(k); stream != nil {
		p.sectors = a.meta.Get(k)
		stage = append(stage, stream...)
		t.access(false, l.global(k), l.target, p.sectors)
		p.count(t, p.sectors)
	}
	return stage
}

// install makes the staged stream the contents of entry k, placed in l.
func (p *relocPass) install(a *Allocation, l *layout, t *relocTally, k int, stream []byte) {
	a.store.put(k, stream)
	a.meta.Set(k, p.sectors)
	t.access(true, l.global(k), l.target, p.sectors)
	p.count(t, p.sectors)
}

// restream rebuilds one entry of a failed device tier: the whole stored
// stream crosses the link from the carve-out copy, the in-budget sectors
// are re-stored device-side.
func (p *relocPass) restream(a *Allocation, l *layout, t *relocTally, k int) {
	if !a.store.written(k) {
		return
	}
	sectors := a.meta.Get(k)
	stored := storedBytes(sectors)
	dev, _ := splitBytes(l.target, sectors)
	t.tier(false, l.global(k), stored)
	t.devWrite += uint64(dev)
	t.stores++
	p.entries++
	p.bytes += int64(stored)
}

// count records one moved entry on t: its stored bytes are the migration
// cost both Traffic.MigrationBytes and ReprofileDecision.MigrationBytes
// count.
func (p *relocPass) count(t *relocTally, sectors int) {
	stored := storedBytes(sectors)
	t.migration += uint64(stored)
	p.entries++
	p.bytes += int64(stored)
}

// ExportEntry appends entry i's committed framed compressed stream to dst
// and returns the extended slice with the entry's sector count, without
// decoding; written is false for a never-written entry (nothing appended,
// nothing to transfer). The read of its placement and its stored bytes are
// charged to the device it lives on as migration traffic. Export works on a
// failed device.
func (a *Allocation) ExportEntry(i int, dst []byte) (stream []byte, sectors int, written bool, err error) {
	if err := a.checkIndex(i); err != nil {
		return dst, 0, false, err
	}
	p := relocPass{kind: relocExport}
	dst, err = a.runPass(&p, dst, i, i+1)
	if err != nil {
		return dst, 0, false, err
	}
	return dst, p.sectors, p.entries == 1, nil
}

// ImportEntry installs a framed compressed stream as entry i's contents
// without decoding it, charged as migration traffic like the export it
// undoes. The stream and sector count must come from an ExportEntry on an
// allocation whose device uses the same codec.
func (a *Allocation) ImportEntry(i int, stream []byte, sectors int) error {
	if err := a.checkIndex(i); err != nil {
		return err
	}
	if sectors < 0 || sectors > compress.SectorsPerEntry {
		return fmt.Errorf("core: import sector count %d out of range [0,%d]",
			sectors, compress.SectorsPerEntry)
	}
	if len(stream) == 0 || len(stream) > MaxStreamBytes { // never-written entries need no import
		return a.errStream(i, len(stream))
	}
	p := relocPass{kind: relocImport, sectors: sectors}
	_, err := a.runPass(&p, stream, i, i+1)
	return err
}
