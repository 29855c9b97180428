package main

import (
	"bytes"
	"errors"
	"fmt"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gen"
)

// The layer battery: a fixed set of probes that time calls into one layer's
// public functions on the workload's own data, run after the traced rounds.
// Every probe runs with the same two client goroutines (the rpc shape with
// its rpcCallers per client) and reports wall time per entry the way the
// workloads do (elapsed / entries, clients in parallel), so layer numbers
// subtract: what a caller's ns/entry exceeds its callee's replay by is the
// caller's self time. That differential can go negative — the pool
// coalesces 4 KiB submits into spans the core then fans out across its span
// workers, while the bare-device replay issues the same 4 KiB chunks one by
// one — and is printed as measured.

// probeReps is how often each probe repeats after one warm-up; the median
// is reported.
const probeReps = 3

// repeat runs fn once to warm up and probeReps times for the record.
func repeat(tr *tracer, label string, fn func() (sample, error)) (sample, error) {
	var reps []sample
	for i := 0; i <= probeReps; i++ {
		t0 := now()
		s, err := fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		tr.keepReplay(label, t0, now())
		if i > 0 {
			reps = append(reps, s)
		}
	}
	return medianSample(reps), nil
}

// compressProbe replays the data set's exact entries through the codec the
// way the core's write and read paths call it: all-zero entries take
// AppendZeroEntry, everything else AppendCompressed; every stored stream is
// decoded with DecompressInto; Sizer.Bits is the analysis pipeline's call.
func compressProbe(tr *tracer, d *dataset) (sample, error) {
	codec := compress.NewBPC()
	type stash struct {
		buf  []byte
		offs []uint32
	}
	var st [clients]stash
	return repeat(tr, "compress", func() (sample, error) {
		var zeros, streamBytes, sectors [clients]int64
		var bad [clients]int64
		t0 := now()
		parallel(func(c int) {
			s := &st[c]
			s.buf, s.offs = s.buf[:0], s.offs[:0]
			for _, r := range d.byClient[c] {
				for e := 0; e < r.entries(); e++ {
					src := r.image(e, false)
					s.offs = append(s.offs, uint32(len(s.buf)))
					var bits int
					if compress.EntryAllZero(src) {
						s.buf, bits = compress.AppendZeroEntry(s.buf, codec)
						zeros[c]++
					} else {
						s.buf, bits = codec.AppendCompressed(s.buf, src)
					}
					sectors[c] += int64(compress.SectorsForBits(bits))
				}
			}
			s.offs = append(s.offs, uint32(len(s.buf)))
			streamBytes[c] = int64(len(s.buf))
		})
		t1 := now()
		parallel(func(c int) {
			s := &st[c]
			var out [compress.EntryBytes]byte
			i := 0
			for _, r := range d.byClient[c] {
				for e := 0; e < r.entries(); e++ {
					if err := codec.DecompressInto(out[:], s.buf[s.offs[i]:s.offs[i+1]]); err != nil || !bytes.Equal(out[:], r.image(e, false)) {
						bad[c]++
					}
					i++
				}
			}
		})
		t2 := now()
		var bitsSum [clients]int64
		parallel(func(c int) {
			sz := compress.NewSizer(codec)
			for _, r := range d.byClient[c] {
				for e := 0; e < r.entries(); e++ {
					bitsSum[c] += int64(sz.Bits(r.image(e, false)))
				}
			}
		})
		t3 := now()
		s := sample{"encode_ns": float64(t1 - t0), "decode_ns": float64(t2 - t1), "size_ns": float64(t3 - t2), "entries": float64(d.entries)}
		for c := 0; c < clients; c++ {
			if bad[c] > 0 {
				return nil, fmt.Errorf("%d entries did not round-trip", bad[c])
			}
			s["zeros"] += float64(zeros[c])
			s["stream_bytes"] += float64(streamBytes[c])
			s["sectors"] += float64(sectors[c])
		}
		return s, nil
	})
}

// bare is the data set on pool-less devices: the core layer alone.
type bare struct {
	d       *dataset
	devices []*core.Device
	alloc   map[*region]*core.Allocation
	shard   map[*region]int
}

func newBare(d *dataset) (*bare, error) {
	b := &bare{d: d, alloc: make(map[*region]*core.Allocation), shard: make(map[*region]int)}
	raw := int64(d.entries) * core.EntryBytes
	for i := 0; i < fleetShards; i++ {
		b.devices = append(b.devices, core.NewDevice(core.Config{Codec: compress.NewBPC(), DeviceBytes: 2 * raw / fleetShards}))
	}
	for i, r := range d.regions {
		a, err := b.devices[i%fleetShards].Malloc(r.name, int64(len(r.data)), r.target)
		if err != nil {
			return nil, errors.Join(err, b.close())
		}
		b.alloc[r], b.shard[r] = a, i%fleetShards
	}
	return b, nil
}

func (b *bare) close() error {
	var errs []error
	for _, d := range b.devices {
		errs = append(errs, d.Close())
	}
	return errors.Join(errs...)
}

func (b *bare) traffic() core.Traffic {
	var t core.Traffic
	for _, d := range b.devices {
		x := d.Traffic()
		t.DeviceReadBytes += x.DeviceReadBytes
		t.DeviceWriteBytes += x.DeviceWriteBytes
		t.BuddyReadBytes += x.BuddyReadBytes
		t.BuddyWriteBytes += x.BuddyWriteBytes
		t.MetadataFillBytes += x.MetadataFillBytes
		t.MigrationBytes += x.MigrationBytes
		t.Reads += x.Reads
		t.Writes += x.Writes
		t.BuddyAccesses += x.BuddyAccesses
	}
	return t
}

// span replays the stream workload's exact chunks through
// Allocation.WriteEntries / ReadEntries, write phase then read phase, and
// verifies the read-back.
func (b *bare) span() (sample, error) {
	var fails [clients]error
	phase := func(read bool) int64 {
		t0 := now()
		parallel(func(c int) {
			for _, r := range b.d.byClient[c] {
				a := b.alloc[r]
				buf := r.data
				if read {
					buf = r.rb
				}
				for off := 0; off < len(buf); off += chunkBytes {
					end := min(off+chunkBytes, len(buf))
					var err error
					if read {
						err = a.ReadEntries(off/core.EntryBytes, buf[off:end])
					} else {
						err = a.WriteEntries(off/core.EntryBytes, buf[off:end])
					}
					if err != nil && fails[c] == nil {
						fails[c] = err
					}
				}
			}
		})
		return now() - t0
	}
	for _, r := range b.d.regions {
		if r.rb == nil {
			r.rb = make([]byte, len(r.data))
		}
	}
	w := phase(false)
	r := phase(true)
	for c := range fails {
		if fails[c] != nil {
			return nil, fails[c]
		}
	}
	if err := b.verify(); err != nil {
		return nil, err
	}
	return sample{"write_ns": float64(w), "read_ns": float64(r), "entries": float64(b.d.entries)}, nil
}

// verify compares every region's read-back buffer with image A.
func (b *bare) verify() error {
	for _, r := range b.d.regions {
		if !bytes.Equal(r.rb, r.data) {
			return fmt.Errorf("%s: read-back differs from what was written", r.name)
		}
	}
	return nil
}

// readAll refills the read-back buffers with whole-region reads.
func (b *bare) readAll() error {
	for _, r := range b.d.regions {
		if err := b.alloc[r].ReadEntries(0, r.rb); err != nil {
			return err
		}
	}
	return b.verify()
}

// entry replays the rpc op stream (same seed, same offsets, same
// read/write mix) through Allocation.WriteAt / ReadAt. Writes store image
// A again: the bytes differ from the rpc workload's flips but are drawn
// from the same entries, so the codec work is the same.
func (b *bare) entry(seed uint64, opsPerClient int) (sample, error) {
	var wNS, rNS, wEntries, rEntries [clients]int64
	var fails [clients]error
	t0 := now()
	parallel(func(c int) {
		rng := gen.NewRNG(seed, uint64(1000+c))
		regs := b.d.byClient[c]
		var scratch [4 * core.EntryBytes]byte
		for i := 0; i < opsPerClient; i++ {
			r, e, n, write := nextOp(rng, regs)
			lo, hi := e*core.EntryBytes, (e+n)*core.EntryBytes
			a := b.alloc[r]
			var err error
			t := now()
			if write {
				_, err = a.WriteAt(r.data[lo:hi], int64(lo))
				wNS[c] += now() - t
				wEntries[c] += int64(n)
			} else {
				_, err = a.ReadAt(scratch[:hi-lo], int64(lo))
				rNS[c] += now() - t
				rEntries[c] += int64(n)
				if err == nil && !bytes.Equal(scratch[:hi-lo], r.data[lo:hi]) {
					err = fmt.Errorf("%s entry %d: read differs from what was written", r.name, e)
				}
			}
			if err != nil && fails[c] == nil {
				fails[c] = err
			}
		}
	})
	s := sample{"ns": float64(now() - t0)}
	for c := 0; c < clients; c++ {
		if fails[c] != nil {
			return nil, fails[c]
		}
		s["write_ns"] += float64(wNS[c])
		s["read_ns"] += float64(rNS[c])
		s["write_entries"] += float64(wEntries[c])
		s["read_entries"] += float64(rEntries[c])
	}
	return s, nil
}

// relocation times the core's three ways of moving entries: Retarget to a
// neighbouring ratio and back, ExportEntry/ImportEntry to a fresh
// allocation on the next device, and Fail+Recover of every device. It ends
// with a verified whole-fleet read.
func (b *bare) relocation() (sample, error) {
	s := sample{"entries": float64(b.d.entries)}
	before := b.traffic().MigrationBytes
	t0 := now()
	for _, r := range b.d.regions {
		a, dev := b.alloc[r], b.devices[b.shard[r]]
		old := a.Target()
		if _, err := dev.Retarget(a, neighbour(old)); err != nil {
			return nil, err
		}
		if _, err := dev.Retarget(a, old); err != nil {
			return nil, err
		}
	}
	s["retarget_ns"] = float64(now() - t0)
	s["migration_bytes"] = float64(b.traffic().MigrationBytes - before)

	stream := make([]byte, 0, core.MaxStreamBytes)
	t0 = now()
	for _, r := range b.d.regions {
		src := b.alloc[r]
		next := (b.shard[r] + 1) % len(b.devices)
		dst, err := b.devices[next].Malloc(r.name, int64(len(r.data)), src.Target())
		if err != nil {
			return nil, err
		}
		for e := 0; e < r.entries(); e++ {
			st, sectors, written, err := src.ExportEntry(e, stream[:0])
			if err == nil && written {
				err = dst.ImportEntry(e, st, sectors)
			}
			if err != nil {
				return nil, errors.Join(err, dst.Close())
			}
		}
		if err := src.Close(); err != nil {
			return nil, errors.Join(err, dst.Close())
		}
		b.alloc[r], b.shard[r] = dst, next
	}
	s["export_import_ns"] = float64(now() - t0)

	t0 = now()
	for _, dev := range b.devices {
		dev.Fail()
		n, _, err := dev.Recover()
		if err != nil {
			return nil, err
		}
		s["recover_entries"] += float64(n)
	}
	s["recover_ns"] = float64(now() - t0)

	t0 = now()
	for i, r := range b.d.regions {
		a, err := b.devices[i%len(b.devices)].Malloc(r.name+"#probe", int64(len(r.data)), r.target)
		if err != nil {
			return nil, err
		}
		if err := a.Close(); err != nil {
			return nil, err
		}
	}
	s["malloc_free_ns"] = float64(now() - t0)
	s["malloc_free_pairs"] = float64(len(b.d.regions))
	return s, b.readAll()
}

// coreProbe runs the bare-device probes and returns them under prefixed
// keys: span_*, entry_*, reloc_*, plus the host and modeled counts of one
// span round.
func coreProbe(tr *tracer, d *dataset, seed uint64, rpcOps int) (sample, error) {
	heap0 := heapInuse()
	b, err := newBare(d)
	if err != nil {
		return nil, err
	}
	out, err := b.probe(tr, seed, rpcOps, heap0)
	return out, errors.Join(err, b.close())
}

func (b *bare) probe(tr *tracer, seed uint64, rpcOps int, heap0 uint64) (sample, error) {
	out := sample{}
	merge := func(prefix string, s sample) {
		for k, v := range s {
			out[prefix+k] = v
		}
	}
	span, err := repeat(tr, "core.span", b.span)
	if err != nil {
		return nil, err
	}
	merge("span_", span)
	out["heap_bytes"] = float64(heapInuse()) - float64(heap0)

	// One more span round with counters: allocations per thousand entries
	// in steady state, and the modeled traffic of exactly one write+read of
	// the data set from a cold metadata cache.
	for _, dev := range b.devices {
		dev.ResetTraffic()
	}
	m0 := mallocCount()
	if _, err := b.span(); err != nil {
		return nil, err
	}
	out["mallocs"] = float64(mallocCount() - m0)
	t := b.traffic()
	acc := float64(t.Reads + t.Writes)
	var hits float64
	for _, dev := range b.devices {
		x := dev.Traffic()
		hits += dev.MetadataCacheHitRate() * float64(x.Reads+x.Writes)
	}
	out["metadata_hit_rate"] = per(hits, acc)
	out["device_bytes_per_access"] = per(float64(t.DeviceReadBytes+t.DeviceWriteBytes), acc)
	out["buddy_bytes_per_access"] = per(float64(t.BuddyReadBytes+t.BuddyWriteBytes), acc)
	out["metadata_fill_bytes_per_access"] = per(float64(t.MetadataFillBytes), acc)

	entry, err := repeat(tr, "core.entry", func() (sample, error) { return b.entry(seed, rpcOps) })
	if err != nil {
		return nil, err
	}
	merge("entry_", entry)
	reloc, err := repeat(tr, "core.relocation", b.relocation)
	if err != nil {
		return nil, err
	}
	merge("reloc_", reloc)
	return out, nil
}
