package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
)

// Batch entry primitives: WriteEntries and ReadEntries move whole spans of
// 128 B entries through the compression pipeline, fanning the codec work
// across the device's persistent span-worker pool. Compression and
// decompression run outside the entry shard locks (each entry operation
// only locks for its table update), so workers contend only on the striped
// mutexes and the batch scales with the pool's width. ReadAt, WriteAt and
// Memcpy route their aligned spans through these primitives, which is what
// makes the byte-addressed bulk surface — and everything above it,
// experiment sweeps included — parallel for free.
//
// Inside a span, the kernels amortize the device-table read lock and the
// traffic-counter updates over sub-batches of spanBatchEntries entries:
// the accounting totals are byte-identical to per-entry execution, only
// the number of lock acquisitions and atomic operations changes. The
// buddy tier stays per entry — the carve-out models per-access link
// occupancy, which batching would distort.

// bulkGrainEntries is the smallest span a worker is given: 64 entries
// (8 KB). Spans below two grains run inline — goroutine handoff costs more
// than compressing a handful of entries.
const bulkGrainEntries = 64

// spanBatchEntries bounds how many entries one dev.mu read-lock
// acquisition (and one traffic flush) covers inside a span kernel, so a
// large span cannot starve writers of the allocation table for its whole
// duration.
const spanBatchEntries = 256

// spanRunner is one batch operation the span pool can partition: runSpan
// processes entries [lo, hi) of the operation's range. Implementations are
// structs rather than closures so dispatching a span allocates nothing.
type spanRunner interface {
	runSpan(lo, hi int) error
}

// spanJob tracks one in-flight partitioned operation: the runner, a
// completion counter, and the first error any chunk produced.
type spanJob struct {
	r   spanRunner
	wg  sync.WaitGroup
	err atomic.Pointer[error]
}

// run executes one chunk and records the job's first error. The error is
// copied into a branch-local before its address is taken: &err on the
// if-scoped variable would move it to the heap on every chunk, failed or
// not.
//
//buddy:hotpath
func (j *spanJob) run(lo, hi int) {
	if err := j.r.runSpan(lo, hi); err != nil {
		first := err
		j.err.CompareAndSwap(nil, &first)
	}
	j.wg.Done()
}

// spanChunk is one contiguous piece of a job, queued to the pool's workers.
type spanChunk struct {
	job    *spanJob
	lo, hi int
}

var spanJobPool = sync.Pool{New: func() any { return new(spanJob) }}

// spanPool is the device's persistent span-worker pool: width-1 goroutines
// (the caller is the width'th worker) draining a bounded chunk queue. It
// replaces per-call goroutine spawns — a batch dispatch in steady state
// allocates nothing and never creates a goroutine. A width of 1 (GOMAXPROCS
// 1 at device construction) spawns no workers at all; every span runs
// inline on its caller.
type spanPool struct {
	width  int            // total workers including the caller; chunk divisor
	chunks chan spanChunk // nil when width <= 1
	closed atomic.Bool
	// runMu brackets partitioned runs against close: a run read-holds it
	// from its closed check until its chunks are done, close flips closed
	// and then takes it exclusively as a barrier. An RWMutex, not a
	// WaitGroup: runs keep arriving after close has begun waiting, which a
	// WaitGroup does not allow (Add from zero concurrent with Wait).
	runMu sync.RWMutex
	wg    sync.WaitGroup // background workers
}

func newSpanPool(width int) *spanPool {
	sp := &spanPool{width: width}
	if width > 1 {
		sp.chunks = make(chan spanChunk, 4*width)
		for i := 0; i < width-1; i++ {
			sp.wg.Add(1)
			go sp.worker()
		}
	}
	return sp
}

func (sp *spanPool) worker() {
	defer sp.wg.Done()
	for c := range sp.chunks {
		c.job.run(c.lo, c.hi)
	}
}

// run partitions [0, n) into contiguous chunks across the pool's workers
// and returns the first error. Small spans — and every span once the pool
// is closed — run inline on the caller's goroutine. Workers never block on
// the chunk queue: when it is full the caller executes the chunk itself, so
// concurrent batch operations degrade to inline work instead of queueing
// behind each other.
func (sp *spanPool) run(n int, r spanRunner) error {
	width := min(sp.width, n/bulkGrainEntries)
	if width <= 1 || sp.chunks == nil {
		return r.runSpan(0, n)
	}
	// The read lock is taken before the closed check; close stores the
	// flag before its barrier — either this run sees closed and stays
	// inline, or close waits for its chunks to finish before closing the
	// channel. Same protocol as the pool's submit/Close.
	sp.runMu.RLock()
	if sp.closed.Load() {
		sp.runMu.RUnlock()
		return r.runSpan(0, n)
	}
	j := spanJobPool.Get().(*spanJob)
	j.r = r
	j.err.Store(nil)
	chunk := (n + width - 1) / width
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		j.wg.Add(1)
		select {
		case sp.chunks <- spanChunk{job: j, lo: lo, hi: hi}:
		default:
			j.run(lo, hi)
		}
	}
	// The first chunk runs inline: the caller works instead of idling.
	j.wg.Add(1)
	j.run(0, chunk)
	j.wg.Wait()
	sp.runMu.RUnlock()
	var err error
	if p := j.err.Load(); p != nil {
		err = *p
	}
	j.r = nil
	spanJobPool.Put(j)
	return err
}

// close retires the background workers. In-flight runs finish first; later
// runs execute inline, so the owning device stays fully usable. Idempotent.
func (sp *spanPool) close() {
	if sp.chunks == nil || !sp.closed.CompareAndSwap(false, true) {
		return
	}
	// Barrier, nothing to protect: in-flight runs finish before the lock is
	// granted, later ones observe closed.
	sp.runMu.Lock()
	sp.runMu.Unlock()
	close(sp.chunks)
	sp.wg.Wait()
}

// entrySpan is the spanRunner behind WriteEntries/ReadEntries: a span of
// contiguous entries of one allocation, backed by one flat buffer.
type entrySpan struct {
	a     *Allocation
	start int
	data  []byte
	read  bool
}

var entrySpanPool = sync.Pool{New: func() any { return new(entrySpan) }}

//buddy:hotpath
func (s *entrySpan) runSpan(lo, hi int) error {
	// Two scratch buffers, so the kernels can stage both entries of a
	// metadata pair and take their shared shard lock once.
	scratch := streamScratchPool.Get().(*[]byte)
	scratch2 := streamScratchPool.Get().(*[]byte)
	var err error
	if s.read {
		err = s.a.readEntrySpan(s.start, lo, hi, s.data, scratch, scratch2)
	} else {
		err = s.a.writeEntrySpan(s.start, lo, hi, s.data, scratch, scratch2)
	}
	streamScratchPool.Put(scratch)
	streamScratchPool.Put(scratch2)
	return err
}

func (a *Allocation) checkEntryRange(start, n int) error {
	if start < 0 || n < 0 || start+n > a.EntryCount {
		return fmt.Errorf("core: entry range [%d,%d) out of range [0,%d)",
			start, start+n, a.EntryCount)
	}
	return nil
}

// runEntrySpan dispatches an entry span through the device's span pool with
// a pooled runner, so the steady-state batch path allocates nothing.
func (a *Allocation) runEntrySpan(start int, data []byte, read bool, n int) error {
	s := entrySpanPool.Get().(*entrySpan)
	s.a, s.start, s.data, s.read = a, start, data, read
	err := a.dev.span.run(n, s)
	s.a, s.data = nil, nil
	entrySpanPool.Put(s)
	return err
}

// WriteEntries compresses and stores len(data)/128 consecutive entries
// beginning at entry index start; len(data) must be a multiple of 128.
// Entries are written in parallel across the device's span-worker pool,
// each worker reusing one pooled scratch buffer for its whole span. Each
// entry write is individually atomic (the usual torn-write contract at
// 128 B granularity); on error a prefix-and-suffix subset of the span may
// have been written.
func (a *Allocation) WriteEntries(start int, data []byte) error {
	if len(data)%EntryBytes != 0 {
		return fmt.Errorf("core: batch write length %d not a multiple of %d", len(data), EntryBytes)
	}
	n := len(data) / EntryBytes
	if n == 0 {
		return nil
	}
	if err := a.checkEntryRange(start, n); err != nil {
		return err
	}
	return a.runEntrySpan(start, data, false, n)
}

// ReadEntries fetches and decompresses len(dst)/128 consecutive entries
// beginning at entry index start, decoding each entry straight into its slot
// of dst with no staging copies; len(dst) must be a multiple of 128. Entries
// are read in parallel across the device's span-worker pool.
func (a *Allocation) ReadEntries(start int, dst []byte) error {
	if len(dst)%EntryBytes != 0 {
		return fmt.Errorf("core: batch read length %d not a multiple of %d", len(dst), EntryBytes)
	}
	n := len(dst) / EntryBytes
	if n == 0 {
		return nil
	}
	if err := a.checkEntryRange(start, n); err != nil {
		return err
	}
	return a.runEntrySpan(start, dst, true, n)
}

// writeEntrySpan is the batch counterpart of writeEntry: it writes entries
// [lo, hi) of a span whose first entry is index start and whose data is the
// span-relative flat buffer. The device-table read lock is taken once per
// sub-batch (never across one, so Malloc/Free/migration commits interleave)
// and the device-tier traffic counters are flushed once per sub-batch; the
// per-entry totals are identical to writeEntry's. Buddy-tier accounting
// stays per entry: the carve-out models per-access link occupancy.
//
// Entries sharing a metadata byte share a shard (shardBase is even), so the
// kernel encodes both halves of a pair into separate scratch buffers first
// and then takes the pair's shard lock once for both table updates. Each
// entry's stream+metadata update remains atomic under the shard lock, so the
// torn-write contract is unchanged.
//
//buddy:hotpath
func (a *Allocation) writeEntrySpan(start, lo, hi int, data []byte, scratch, scratch2 *[]byte) error {
	d := a.dev
	bufs := [2]*[]byte{scratch, scratch2}
	for b := lo; b < hi; {
		e := min(b+spanBatchEntries, hi)
		d.mu.RLock()
		if a.freed {
			d.mu.RUnlock()
			return a.errFreed()
		}
		if d.failed.Load() {
			d.mu.RUnlock()
			return d.errFailed()
		}
		var devBytes uint64
		for i := b; i < e; {
			n := 1
			if i+1 < e && (a.shardBase+start+i)&1 == 0 {
				n = 2
			}
			var streams [2][]byte
			var secs [2]int
			for k := 0; k < n; k++ {
				src := data[(i+k)*EntryBytes : (i+k+1)*EntryBytes]
				// All-zero entries short-circuit the codec, exactly as in
				// writeEntry: activation-like sparse traffic is dominated by
				// this path.
				var stream []byte
				var bits int
				if compress.EntryAllZero(src) {
					stream, bits = compress.AppendZeroEntry((*bufs[k])[:0], d.cfg.Codec)
				} else {
					stream, bits = d.cfg.Codec.AppendCompressed((*bufs[k])[:0], src)
				}
				*bufs[k] = stream[:0]
				streams[k] = stream
				secs[k] = compress.SectorsForBits(bits)
			}
			var homes [2]int
			var targets [2]TargetRatio
			sh := a.shard(start + i)
			sh.Lock()
			for k := 0; k < n; k++ {
				g, t := a.entryHome(start + i + k)
				homes[k], targets[k] = g, t
				d.streams[g] = append(d.streams[g][:0], streams[k]...)
				d.meta.Set(g, secs[k])
				a.sectorCount[start+i+k] = secs[k]
			}
			sh.Unlock()
			for k := 0; k < n; k++ {
				g := homes[k]
				d.accessMetadata(g)
				dev, buddy := splitBytes(targets[k], secs[k])
				devBytes += uint64(dev)
				if buddy > 0 {
					d.traffic.buddyWriteBytes.Add(uint64(buddy))
					d.traffic.buddyAccesses.Add(1)
					d.overflow.Store(g, buddy)
				}
			}
			i += n
		}
		d.mu.RUnlock()
		d.traffic.writes.Add(uint64(e - b))
		d.traffic.deviceWriteBytes.Add(devBytes)
		d.slab.StoreSpan(e-b, devBytes)
		b = e
	}
	return nil
}

// readEntrySpan is the batch counterpart of readEntry, with the same
// sub-batched lock and accounting amortization as writeEntrySpan. Each
// stored stream is snapshotted into a scratch under its shard lock (writers
// reuse stream buffers in place) and decoded outside it, straight into the
// span buffer. Like the write kernel, both entries of a metadata pair are
// snapshotted under one acquisition of their shared shard lock.
//
//buddy:hotpath
func (a *Allocation) readEntrySpan(start, lo, hi int, dst []byte, scratch, scratch2 *[]byte) error {
	d := a.dev
	bufs := [2]*[]byte{scratch, scratch2}
	for b := lo; b < hi; {
		e := min(b+spanBatchEntries, hi)
		d.mu.RLock()
		if a.freed {
			d.mu.RUnlock()
			return a.errFreed()
		}
		if d.failed.Load() {
			d.mu.RUnlock()
			return d.errFailed()
		}
		var devBytes uint64
		for i := b; i < e; {
			n := 1
			if i+1 < e && (a.shardBase+start+i)&1 == 0 {
				n = 2
			}
			var homes [2]int
			var targets [2]TargetRatio
			var secs [2]int
			var written [2]bool
			sh := a.shard(start + i)
			sh.Lock()
			for k := 0; k < n; k++ {
				g, t := a.entryHome(start + i + k)
				homes[k], targets[k] = g, t
				secs[k] = d.meta.Get(g)
				written[k] = d.streams[g] != nil
				*bufs[k] = append((*bufs[k])[:0], d.streams[g]...)
			}
			sh.Unlock()
			for k := 0; k < n; k++ {
				g := homes[k]
				d.accessMetadata(g)
				dev, buddy := splitBytes(targets[k], secs[k])
				devBytes += uint64(dev)
				if buddy > 0 {
					d.traffic.buddyReadBytes.Add(uint64(buddy))
					d.traffic.buddyAccesses.Add(1)
					d.overflow.Load(g, buddy)
				}
				out := dst[(i+k)*EntryBytes : (i+k+1)*EntryBytes]
				if !written[k] {
					// Never-written entries read as zero, like fresh
					// cudaMalloc pages.
					clear(out)
				} else if err := d.cfg.Codec.DecompressInto(out, *bufs[k]); err != nil {
					d.mu.RUnlock()
					// The failed entry's read was already accounted, like
					// readEntry's counters-before-decode ordering.
					d.traffic.reads.Add(uint64(i + k + 1 - b))
					d.traffic.deviceReadBytes.Add(devBytes)
					d.slab.LoadSpan(i+k+1-b, devBytes)
					return fmt.Errorf("core: entry %d of %s: %w", start+i+k, a.Name, err)
				}
			}
			i += n
		}
		d.mu.RUnlock()
		d.traffic.reads.Add(uint64(e - b))
		d.traffic.deviceReadBytes.Add(devBytes)
		d.slab.LoadSpan(e-b, devBytes)
		b = e
	}
	return nil
}
