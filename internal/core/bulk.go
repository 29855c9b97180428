package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Batch entry primitives: WriteEntries and ReadEntries move whole spans of
// 128 B entries through the compression pipeline, fanning the codec work
// across the device's persistent span-worker pool. Each worker's chunk is a
// write or read pass of the entry-table walker (relocate.go): compression
// and decompression run outside the entry shard locks, so workers contend
// only on the striped mutexes and the batch scales with the pool's width.
// ReadAt, WriteAt and Memcpy route their aligned spans through these
// primitives, which is what makes the byte-addressed bulk surface — and
// everything above it, experiment sweeps included — parallel for free.
//
// A pass amortizes the allocation's read lock and the traffic-counter
// updates over sub-batches of spanBatchEntries entries; the overflow tier
// is handed each sub-batch's accesses as one span, in order, once the
// sub-batch's lock has dropped. The accounting — link occupancy and pager
// faults included — is identical to per-entry execution; only the number of
// lock acquisitions and atomic operations changes.

// bulkGrainEntries is the smallest span a worker is given: 64 entries
// (8 KB). Spans below two grains run inline — goroutine handoff costs more
// than compressing a handful of entries.
const bulkGrainEntries = 64

// spanBatchEntries bounds how many entries one a.mu read-lock acquisition
// (and one traffic flush) covers inside a walker pass, so a large span
// cannot hold off Free or a relayout's cutover for its whole duration.
const spanBatchEntries = 256

// spanJob tracks one in-flight partitioned operation: the span being
// partitioned, a completion counter, and the first error any chunk produced.
type spanJob struct {
	r   *entrySpan
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

// run partitions r's n entries into contiguous chunks across the pool's
// workers and returns the first error. Small spans — and every span once the pool
// is closed — run inline on the caller's goroutine. Workers never block on
// the chunk queue: when it is full the caller executes the chunk itself, so
// concurrent batch operations degrade to inline work instead of queueing
// behind each other.
func (sp *spanPool) run(n int, r *entrySpan) error {
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

// spanScratch is one pass's pooled staging: the two buffers a metadata
// pair's framed streams are staged in — MaxStreamBytes each, so the
// steady-state codec path never allocates — and the sub-batch's
// overflow-tier op lists, one per tally: pooled, not on a builder's stack,
// because they reach the tier through an interface.
type spanScratch struct {
	bufs [2][]byte
	ops  [2 * spanBatchEntries]TierOp // a same-device relayout reads the old slot and writes the new
	far  [spanBatchEntries]TierOp
}

var spanScratchPool = sync.Pool{New: func() any {
	x := new(spanScratch)
	for k := range x.bufs {
		x.bufs[k] = make([]byte, 0, MaxStreamBytes)
	}
	return x
}}

// runPass is relocate on pooled scratch: pass p over entries [lo, hi) of a.
//
//buddy:hotpath
func (a *Allocation) runPass(p *relocPass, stage []byte, lo, hi int) ([]byte, error) {
	x := spanScratchPool.Get().(*spanScratch)
	p.tally.ops, p.far.ops = x.ops[:0], x.far[:0]
	stage, err := a.relocate(p, &x.bufs, stage, lo, hi)
	spanScratchPool.Put(x)
	return stage, err
}

// entrySpan is the one thing the span pool partitions: a pass of one kind
// over a span of contiguous entries of one allocation, beginning at start —
// backed, for the data kinds, by one flat buffer. A struct rather than a
// closure, and pooled, so dispatching a span allocates nothing. Its workers'
// passes sum what they charged and what they moved into the counters.
type entrySpan struct {
	a     *Allocation
	kind  relocKind
	start int
	data  []byte

	deviceBytes, linkRead, linkWrite atomic.Uint64
	entries, bytes                   atomic.Int64
}

var entrySpanPool = sync.Pool{New: func() any { return new(entrySpan) }}

// runSpan runs the span's pass over its entries [lo, hi), counted from start.
//
//buddy:hotpath
func (s *entrySpan) runSpan(lo, hi int) error {
	p := relocPass{kind: s.kind, base: s.start}
	_, err := s.a.runPass(&p, s.data, s.start+lo, s.start+hi)
	s.deviceBytes.Add(p.cost.DeviceBytes)
	s.linkRead.Add(p.cost.LinkRead)
	s.linkWrite.Add(p.cost.LinkWrite)
	s.entries.Add(int64(p.entries))
	s.bytes.Add(p.bytes)
	return err
}

// spanPass runs one pass of the walker, of any kind that takes a whole span,
// over entries [start, start+n) of a; data is the span's flat buffer for
// relocWrite and relocRead, nil otherwise. It returns what the pass charged
// and, for the relocation kinds, the entries that held a stream and their
// stored bytes — on an error, those of the entries accounted before it ended. A span below two bulk grains — which spanPool.run would
// keep inline anyway — is one pass on the caller with the relocPass on its
// stack; a longer one goes through the span pool of the device a is on with a
// pooled runner, so the steady state allocates nothing either way.
//
//buddy:hotpath
func (a *Allocation) spanPass(kind relocKind, start, n int, data []byte) (Cost, int, int64, error) {
	if n < 2*bulkGrainEntries {
		p := relocPass{kind: kind, base: start}
		_, err := a.runPass(&p, data, start, start+n)
		return p.cost, p.entries, p.bytes, err
	}
	s := entrySpanPool.Get().(*entrySpan)
	s.a, s.kind, s.start, s.data = a, kind, start, data
	err := a.Device().span.run(n, s)
	c := Cost{DeviceBytes: s.deviceBytes.Swap(0), LinkRead: s.linkRead.Swap(0), LinkWrite: s.linkWrite.Swap(0)}
	entries, bytes := int(s.entries.Swap(0)), s.bytes.Swap(0)
	s.a, s.data = nil, nil
	entrySpanPool.Put(s)
	return c, entries, bytes, err
}

func (a *Allocation) checkEntryRange(start, n int) error {
	if start < 0 || n < 0 || start+n > a.EntryCount {
		return fmt.Errorf("core: entry range [%d,%d) out of range [0,%d)",
			start, start+n, a.EntryCount)
	}
	return nil
}

// accessEntries validates a span and runs it as a data pass, returning what
// it charged.
//
//buddy:hotpath
func (a *Allocation) accessEntries(kind relocKind, start int, data []byte) (Cost, error) {
	if len(data)%EntryBytes != 0 {
		return Cost{}, fmt.Errorf("core: batch length %d not a multiple of %d", len(data), EntryBytes)
	}
	n := len(data) / EntryBytes
	if n == 0 {
		return Cost{}, nil
	}
	if err := a.checkEntryRange(start, n); err != nil {
		return Cost{}, err
	}
	c, _, _, err := a.spanPass(kind, start, n, data)
	return c, err
}

// WriteEntries compresses and stores len(data)/128 consecutive entries
// beginning at entry index start; len(data) must be a multiple of 128.
// Sectors beyond an entry's target budget are written to its fixed overflow
// slot; no other entry is disturbed regardless of compressibility changes.
// Entries are written in parallel across the device's span-worker pool.
// Each entry write is individually atomic (the usual torn-write contract at
// 128 B granularity); on error a prefix-and-suffix subset of the span may
// have been written.
func (a *Allocation) WriteEntries(start int, data []byte) error {
	_, err := a.accessEntries(relocWrite, start, data)
	return err
}

// ReadEntries fetches and decompresses len(dst)/128 consecutive entries
// beginning at entry index start, decoding each entry straight into its slot
// of dst with no staging copies; len(dst) must be a multiple of 128. Entries
// are read in parallel across the device's span-worker pool.
func (a *Allocation) ReadEntries(start int, dst []byte) error {
	_, err := a.accessEntries(relocRead, start, dst)
	return err
}

// accessEntry is WriteEntry and ReadEntry: a data pass over a span of one.
//
//buddy:hotpath
func (a *Allocation) accessEntry(kind relocKind, i int, buf []byte) (Cost, error) {
	if err := a.checkIndex(i); err != nil {
		return Cost{}, err
	}
	if len(buf) != EntryBytes {
		return Cost{}, fmt.Errorf("core: entry buffer must be %d bytes, got %d", EntryBytes, len(buf))
	}
	c, _, _, err := a.spanPass(kind, i, 1, buf)
	return c, err
}

// WriteEntry compresses and stores one 128 B entry: WriteEntries as a span
// of one.
func (a *Allocation) WriteEntry(i int, data []byte) error {
	_, err := a.accessEntry(relocWrite, i, data)
	return err
}

// ReadEntry fetches and decompresses entry i into dst (128 bytes):
// ReadEntries as a span of one.
func (a *Allocation) ReadEntry(i int, dst []byte) error {
	_, err := a.accessEntry(relocRead, i, dst)
	return err
}
