package core

import (
	"fmt"
	"sync"

	"buddy/internal/compress"
)

// The entry-table walker: one span visitor, relocate, is the only code that
// walks the entry table. Every operation on an entry is the same five steps
// (§3.3 gives each entry one fixed device slot and one fixed buddy slot):
// lock its shard, resolve its home, touch its stream, set or read its
// metadata, charge the two tiers. The data path (WriteEntries/ReadEntries,
// and WriteEntry/ReadEntry as spans of one) and every mover — Retarget and
// ApplyReprofile (old layout to new layout on one device), TransferEntries
// (framed streams between codec-matched devices, under the pool's
// MigrateHandle and Drain) and Recover (re-stream from the carve-out copy) —
// are passes of it that differ only in what happens to an entry before,
// under and after its shard lock (table in DESIGN.md "The entry-table
// walker").
//
// A pass takes dev.mu read-locked once per sub-batch of spanBatchEntries
// entries and never across one, both entries of a metadata pair share one
// acquisition of their shard lock, and the Traffic counters and the slab's
// meter are flushed once per sub-batch from a relocTally. Per entry stay
// entryHome, resolved under the shard lock (an in-flight Retarget splits a
// span between two layouts), the metadata-cache lookup of a data access, and
// the overflow tier: the carve-out models link occupancy per access and the
// host tier pages per access, so the flush replays their accesses one by
// one, in entry order. Every total, and the link's busy cycles per
// direction, equal visiting the entries one at a time.

// relocKind selects what a pass does to each entry. The order matters twice:
// kinds from relocImport on need a live device tier, kinds from relocWrite on
// are the data path (counted as entry accesses, metadata cache consulted).
type relocKind uint8

const (
	relocMigrate relocKind = iota // hand the entry to the migration's new layout
	relocExport                   // snapshot the framed stream into the staging buffer
	relocRebuild                  // re-stream from the carve-out copy into the device tier
	relocImport                   // install the staged framed stream
	relocWrite                    // encode from the span buffer and commit
	relocRead                     // snapshot and decode into the span buffer
)

// tierOp is one overflow-tier access of a pass, deferred to the sub-batch's
// flush.
type tierOp struct {
	entry int // global entry index
	n     int32
	store bool
}

// relocTally is the traffic one sub-batch of a pass owes its device. ops is
// sized by the pass's builder for one sub-batch and written by index: no
// method here or on relocPass stores a pointer through its receiver, which
// is what keeps a pass and its buffers on the builder's stack.
type relocTally struct {
	migration         uint64 // Traffic.MigrationBytes
	devRead, devWrite uint64
	budRead, budWrite uint64
	loads, stores     int      // device-slab accesses behind devRead/devWrite
	ops               []tierOp // overflow-tier accesses, in entry order
	nops              int
}

// access charges a read (or, with store, a write) of an entry's placement
// under target tr.
func (t *relocTally) access(store bool, g int, tr TargetRatio, sectors int) {
	dev, bud := splitBytes(tr, sectors)
	if store {
		t.devWrite += uint64(dev)
		t.budWrite += uint64(bud)
		t.stores++
	} else {
		t.devRead += uint64(dev)
		t.budRead += uint64(bud)
		t.loads++
	}
	if bud > 0 {
		t.ops[t.nops] = tierOp{entry: g, n: int32(bud), store: store}
		t.nops++
	}
}

// flush charges the tally to d and empties it. Only a data pass's accesses
// count as Traffic.Reads/Writes/BuddyAccesses, the buddy-access fraction of
// Fig. 7/9: a relocation moves stored bytes.
func (t *relocTally) flush(d *Device, data bool) {
	if t.migration != 0 {
		d.traffic.migrationBytes.Add(t.migration)
	}
	if t.loads != 0 {
		d.traffic.deviceReadBytes.Add(t.devRead)
		d.slab.LoadSpan(t.loads, t.devRead)
		if data {
			d.traffic.reads.Add(uint64(t.loads))
		}
	}
	if t.stores != 0 {
		d.traffic.deviceWriteBytes.Add(t.devWrite)
		d.slab.StoreSpan(t.stores, t.devWrite)
		if data {
			d.traffic.writes.Add(uint64(t.stores))
		}
	}
	if t.nops != 0 {
		if data {
			d.traffic.buddyAccesses.Add(uint64(t.nops))
		}
		if t.budRead != 0 {
			d.traffic.buddyReadBytes.Add(t.budRead)
		}
		if t.budWrite != 0 {
			d.traffic.buddyWriteBytes.Add(t.budWrite)
		}
		ops := t.ops[:t.nops]
		if c, ok := d.overflow.(*CarveoutBackend); ok {
			c.accessSpan(ops)
		} else {
			for _, op := range ops {
				if op.store {
					d.overflow.Store(op.entry, int(op.n))
				} else {
					d.overflow.Load(op.entry, int(op.n))
				}
			}
		}
	}
	t.migration, t.devRead, t.devWrite, t.budRead, t.budWrite = 0, 0, 0, 0, 0
	t.loads, t.stores, t.nops = 0, 0, 0
}

// relocPass is one pass of the walker over a range of one allocation's
// entries: what to do, the buffers to do it with, and what it did. Nothing
// in one is shared between span workers.
type relocPass struct {
	kind relocKind
	mig  *migration // relocMigrate: the epoch being filled

	// relocExport and relocImport: entry base+k's framed stream is
	// stage[offs[k]:offs[k+1]] of the staging buffer — empty for a
	// never-written entry — and its sector class secs[k].
	// relocWrite and relocRead: entry base+k's 128 bytes are
	// stage[k*EntryBytes:][:EntryBytes], the span's flat buffer.
	base int
	offs []int32
	secs []uint8

	entries int   // entries that held a stream (relocation kinds)
	bytes   int64 // their stored bytes
	tally   relocTally
}

// relocate runs pass p over entries [lo, hi) of a. stage is the staging
// buffer: an export appends the framed streams to it and returns it
// extended, an import reads them from it, a write encodes the entries in it
// and a read decodes into it; the other kinds pass nil. pair is where the
// data kinds stage a metadata pair's framed streams between the codec and
// the table, nil for the rest. Both travel beside the pass: the codec is an
// interface, so whatever reached it through p would move every buffer p
// refers to — its builder's op list included — to the heap.
//
// A sub-batch is all or nothing: freed and, for the kinds that need the
// device tier, failed are checked once under its dev.mu read lock, so
// ErrFreed or ErrDeviceFailed means no entry of that sub-batch or after it
// was touched. Every kind but relocExport flushes its tally as each
// sub-batch's lock drops; an export is charged by its caller once the import
// it feeds committed. A read's decode error ends the pass inside a
// sub-batch: what was accounted up to and including the failing entry is
// flushed, the entries before it are delivered.
//
//buddy:hotpath
func (a *Allocation) relocate(p *relocPass, pair *[2][]byte, stage []byte, lo, hi int) ([]byte, error) {
	d := a.dev
	for b := lo; b < hi; {
		e := min(b+spanBatchEntries, hi)
		d.mu.RLock()
		if a.freed {
			d.mu.RUnlock()
			return stage, a.errFreed()
		}
		if p.kind >= relocImport && d.failed.Load() {
			d.mu.RUnlock()
			return stage, d.errFailed()
		}
		var err error
		if p.kind >= relocWrite {
			err = p.accessBatch(a, pair, stage, b, e)
		} else {
			var blk []byte // relocImport: the sub-batch's block of fresh stream buffers
			for i := b; i < e; {
				n := a.pairLen(i, e)
				sh := a.shard(i)
				sh.Lock()
				for k := i; k < i+n; k++ {
					g, tr := a.entryHome(k) // under the shard lock: whichever layout owns k now
					switch p.kind {
					case relocMigrate:
						p.handOver(d, k, g, tr)
					case relocExport:
						stage = p.snapshot(d, k, g, tr, stage)
					case relocImport:
						blk = p.install(a, k, g, tr, stage, blk, e)
					case relocRebuild:
						p.restream(d, g, tr)
					}
				}
				sh.Unlock()
				i += n
			}
		}
		d.mu.RUnlock()
		if p.kind != relocExport {
			p.tally.flush(d, p.kind >= relocWrite)
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
// metadata pair (shardBase is even) and its upper half is in range.
func (a *Allocation) pairLen(i, e int) int {
	if i+1 < e && (a.shardBase+i)&1 == 0 {
		return 2
	}
	return 1
}

// accessBatch is the data path's step over one sub-batch [b, e), pair by
// pair. A write is an import with an encode before the lock: both entries of
// a pair are encoded into the pair buffers first (all-zero entries
// short-circuit the codec — one 16-word probe, and the precomputed per-codec
// zero stream is frame-identical to an encode; sparse activation traffic is
// mostly this), then stream, metadata and sectorCount commit under the lock,
// into the entry's retained buffer so the steady state allocates nothing. A
// read is an export with a decode after the lock: stream and metadata are
// snapshotted under it (writers reuse stream buffers in place, so the
// reference must not leave it) and decoded straight into the caller's
// buffer. Never-written entries read as zero, like fresh cudaMalloc pages,
// and still cost the minimum access. Each entry looks up the metadata cache
// and is charged before its decode, so a decode error leaves exactly the
// entries up to and including the failing one accounted. The pair loop and
// its arrays live here, not in relocate's, where the relocation kinds would
// pay for them (measured: +4 % on Recover's 20 ns per entry).
//
//buddy:hotpath
func (p *relocPass) accessBatch(a *Allocation, pair *[2][]byte, data []byte, b, e int) error {
	d := a.dev
	write := p.kind == relocWrite
	for i := b; i < e; {
		n := a.pairLen(i, e)
		var (
			homes   [2]int
			targets [2]TargetRatio
			secs    [2]int
			written [2]bool
		)
		if write {
			for k := 0; k < n; k++ {
				src := data[(i+k-p.base)*EntryBytes:][:EntryBytes]
				var bits int
				if compress.EntryAllZero(src) {
					pair[k], bits = compress.AppendZeroEntry(pair[k][:0], d.cfg.Codec)
				} else {
					pair[k], bits = d.cfg.Codec.AppendCompressed(pair[k][:0], src)
				}
				secs[k] = compress.SectorsForBits(bits)
			}
		}
		sh := a.shard(i)
		sh.Lock()
		for k := 0; k < n; k++ {
			g, tr := a.entryHome(i + k) // a write lands in whichever layout owns the entry at commit
			homes[k], targets[k] = g, tr
			if write {
				d.streams[g] = append(d.streams[g][:0], pair[k]...)
				d.meta.Set(g, secs[k])
				a.sectorCount[i+k] = secs[k]
			} else {
				secs[k] = d.meta.Get(g)
				written[k] = d.streams[g] != nil
				pair[k] = append(pair[k][:0], d.streams[g]...)
			}
		}
		sh.Unlock()
		for k := 0; k < n; k++ {
			d.accessMetadata(homes[k])
			p.tally.access(write, homes[k], targets[k], secs[k])
			if write {
				continue
			}
			out := data[(i+k-p.base)*EntryBytes:][:EntryBytes]
			if !written[k] {
				clear(out)
			} else if err := d.cfg.Codec.DecompressInto(out, pair[k]); err != nil {
				return fmt.Errorf("core: entry %d of %s: %w", i+k, a.Name, err)
			}
		}
		i += n
	}
	return nil
}

// handOver gives entry k, at home g under target tr in the old layout, to
// the migration's new layout. Never-written entries have nothing to move;
// flipping the epoch bit is enough.
func (p *relocPass) handOver(d *Device, k, g int, tr TargetRatio) {
	m := p.mig
	if m.moved[k] {
		return
	}
	m.moved[k] = true
	stream := d.streams[g]
	if stream == nil {
		return
	}
	gNew := m.reg.firstEntry + k
	sectors := d.meta.Get(g)
	d.streams[gNew], d.streams[g] = stream, nil
	d.meta.Set(gNew, sectors)
	d.meta.Set(g, 0)
	p.tally.access(false, g, tr, sectors)
	p.tally.access(true, gNew, m.target, sectors)
	p.count(sectors)
}

// snapshot appends entry k's framed stream to stage and records where.
func (p *relocPass) snapshot(d *Device, k, g int, tr TargetRatio, stage []byte) []byte {
	if stream := d.streams[g]; stream != nil {
		sectors := d.meta.Get(g)
		stage = append(stage, stream...)
		p.secs[k-p.base] = uint8(sectors)
		p.tally.access(false, g, tr, sectors)
		p.count(sectors)
	}
	p.offs[k-p.base+1] = int32(len(stage))
	return stage
}

// install makes the staged stream entry k's contents. An entry that has a
// buffer is overwritten in place; a fresh one is carved out of blk — one
// block for the rest of the sub-batch, which ends at entry e, instead of an
// allocation per entry — capped at its length, so a later, larger rewrite
// reallocates that entry alone. It returns what is left of the block.
func (p *relocPass) install(a *Allocation, k, g int, tr TargetRatio, stage, blk []byte, e int) []byte {
	stream := stage[p.offs[k-p.base]:p.offs[k-p.base+1]]
	if len(stream) == 0 {
		return blk // never written at the source: nothing to install
	}
	d := a.dev
	sectors := int(p.secs[k-p.base])
	if d.streams[g] != nil {
		d.streams[g] = append(d.streams[g][:0], stream...)
	} else {
		if len(blk) < len(stream) {
			blk = make([]byte, p.offs[e-p.base]-p.offs[k-p.base])
		}
		copy(blk, stream)
		d.streams[g], blk = blk[:len(stream):len(stream)], blk[len(stream):]
	}
	d.meta.Set(g, sectors)
	a.sectorCount[k] = sectors
	p.tally.access(true, g, tr, sectors)
	p.count(sectors)
	return blk
}

// restream rebuilds one entry of a failed device tier: the whole stored
// stream crosses the link from the carve-out copy, the in-budget sectors
// are re-stored device-side.
func (p *relocPass) restream(d *Device, g int, tr TargetRatio) {
	if d.streams[g] == nil {
		return
	}
	t := &p.tally
	sectors := d.meta.Get(g)
	stored := storedBytes(sectors)
	dev, _ := splitBytes(tr, sectors)
	t.budRead += uint64(stored)
	t.ops[t.nops] = tierOp{entry: g, n: int32(stored)}
	t.nops++
	t.devWrite += uint64(dev)
	t.stores++
	p.entries++
	p.bytes += int64(stored)
}

// count records one moved entry: its stored bytes are the migration cost
// both Traffic.MigrationBytes and ReprofileDecision.MigrationBytes count.
func (p *relocPass) count(sectors int) {
	stored := storedBytes(sectors)
	p.tally.migration += uint64(stored)
	p.entries++
	p.bytes += int64(stored)
}

// transferScratch is one TransferEntries call's staging: the flat buffer the
// export fills and the import drains, its offsets and sector classes, and
// both sides' overflow-tier op lists.
type transferScratch struct {
	stage  []byte
	offs   [spanBatchEntries + 1]int32
	secs   [spanBatchEntries]uint8
	srcOps [spanBatchEntries]tierOp
	dstOps [spanBatchEntries]tierOp
}

var transferScratchPool = sync.Pool{New: func() any { return new(transferScratch) }}

// TransferEntries moves entries [lo, hi) of a to the same indexes of dst,
// usually on another device, as framed compressed streams, without
// decoding. Codec compatibility is the caller's contract (SameCodecAs); a
// mismatched stream surfaces as a decode error on the next read.
// Never-written entries are skipped: they read as zero on both sides.
// Exporting off a failed device works — the streams are the carve-out
// mirror's surviving copy, which is what evacuating a dead tier reads.
//
// The range moves in sub-batches of spanBatchEntries, each exported into
// one staging buffer under a's device lock and then imported under dst's
// (never both at once), all or nothing. It returns the number of leading
// entries moved: on error — either side freed, dst's device tier failed —
// a whole number of sub-batches, with nothing past them touched or
// charged. Both devices account a move as migration traffic
// (Traffic.MigrationBytes plus the placements read on the source and
// written on the destination), and the source is charged only once the
// destination committed, so bytes out of one device always equal bytes
// into the other.
//
//buddy:hotpath
func (a *Allocation) TransferEntries(dst *Allocation, lo, hi int) (int, error) {
	if err := a.checkEntryRange(lo, hi-lo); err != nil {
		return 0, err
	}
	if err := dst.checkEntryRange(lo, hi-lo); err != nil {
		return 0, err
	}
	x := transferScratchPool.Get().(*transferScratch)
	defer transferScratchPool.Put(x)
	for b := lo; b < hi; {
		e := min(b+spanBatchEntries, hi)
		out := relocPass{kind: relocExport, base: b, offs: x.offs[:], secs: x.secs[:], tally: relocTally{ops: x.srcOps[:]}}
		stage, err := a.relocate(&out, nil, x.stage[:0], b, e)
		x.stage = stage // keep the grown buffer
		if err != nil {
			return b - lo, err
		}
		if out.entries > 0 {
			in := relocPass{kind: relocImport, base: b, offs: x.offs[:], secs: x.secs[:], tally: relocTally{ops: x.dstOps[:]}}
			if _, err := dst.relocate(&in, nil, stage, b, e); err != nil {
				return b - lo, err
			}
			out.tally.flush(a.dev, false)
		}
		b = e
	}
	return hi - lo, nil
}

// ExportEntry appends entry i's committed framed compressed stream to dst
// and returns the extended slice with the entry's sector count, without
// decoding; written is false for a never-written entry (nothing appended,
// nothing to transfer). It is TransferEntries' export side as a span of
// one, charged to the source at once. Export works on a failed device.
func (a *Allocation) ExportEntry(i int, dst []byte) (stream []byte, sectors int, written bool, err error) {
	if err := a.checkIndex(i); err != nil {
		return dst, 0, false, err
	}
	var (
		offs [2]int32
		secs [1]uint8
		ops  [1]tierOp
	)
	offs[0] = int32(len(dst))
	p := relocPass{kind: relocExport, base: i, offs: offs[:], secs: secs[:], tally: relocTally{ops: ops[:]}}
	dst, err = a.relocate(&p, nil, dst, i, i+1)
	if err != nil {
		return dst, 0, false, err
	}
	p.tally.flush(a.dev, false)
	return dst, int(secs[0]), p.entries == 1, nil
}

// ImportEntry installs a framed compressed stream as entry i's contents
// without decoding it: TransferEntries' import side as a span of one. The
// stream and sector count must come from an ExportEntry on an allocation
// whose device uses the same codec.
func (a *Allocation) ImportEntry(i int, stream []byte, sectors int) error {
	if err := a.checkIndex(i); err != nil {
		return err
	}
	if sectors < 0 || sectors > compress.SectorsPerEntry {
		return fmt.Errorf("core: import sector count %d out of range [0,%d]",
			sectors, compress.SectorsPerEntry)
	}
	if len(stream) == 0 {
		return fmt.Errorf("core: import of an empty stream (never-written entries need no import)")
	}
	var ops [1]tierOp
	offs := [2]int32{0, int32(len(stream))}
	secs := [1]uint8{uint8(sectors)}
	p := relocPass{kind: relocImport, base: i, offs: offs[:], secs: secs[:], tally: relocTally{ops: ops[:]}}
	_, err := a.relocate(&p, nil, stream, i, i+1)
	return err
}
