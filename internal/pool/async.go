package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"buddy/internal/core"
)

// Async batched serving: many clients issue I/O against the pool without
// serializing on any one device's shard locks. Each shard owns a
// tenant-aware scheduler (sched.go) drained by its own workers; Submit
// routes an operation to the owning shard and returns a Future — already
// completed when the operation was small and the shard had nothing pending
// (it then ran to completion on the submitter, see submit), pending on the
// shard's queue otherwise.
//
// The queued path is allocation-free and batch-shaped: an operation is one
// pooled object, its Future, which sits on the ring as itself and is
// completed through a WaitGroup, and each dequeued window — drawn from a
// single tenant's ring, in FIFO order — is executed as maximal coalescible
// runs of adjacent operations (same allocation, same kind, contiguous
// entry-aligned offsets) dispatched through the device's batch
// WriteEntries/ReadEntries primitives. A client streaming small chunks
// therefore still reaches the batch data path: the queue, not the submission
// size, sets the dispatch granularity — and coalescing never crosses a tenant
// boundary, because a window never does.

// opKind selects an async operation.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// Future is a submitted operation and its pending result: what to do (kind,
// h, buf, off), the submitting shard's modeled clock reading when it was
// submitted (stamp; completion latency is the clock distance from there to
// the run's completion, sched.advance and latency), and what came of it.
//
// Lifecycle: a Future is checked out of an internal pool by SubmitWrite/
// SubmitRead, queued on its tenant's ring as itself, and recycled when Wait
// returns. Wait must therefore be called exactly once, and no method may be
// called after it returns — a retained pointer may already belong to a later
// submission.
type Future struct {
	kind  opKind
	h     *Handle
	buf   []byte
	off   int64
	stamp uint64

	n   int
	err error
	wg  sync.WaitGroup // 1 while pending; Done()ed by finish

	// waited turns a second Wait into a panic instead of silent
	// corruption of a recycled future (best effort: it cannot catch a
	// second Wait that races a re-checkout).
	waited atomic.Bool
}

var futurePool = sync.Pool{New: func() any { return new(Future) }}

// Wait blocks until the operation completes and returns its byte count and
// error — the same values the synchronous ReadAt/WriteAt would return.
// Wait consumes the future: it must be called exactly once, and the future
// must not be touched afterwards (it is recycled for later submissions).
func (f *Future) Wait() (int, error) {
	f.wg.Wait()
	if f.waited.Swap(true) {
		panic("pool: Future.Wait called twice; the future was already consumed")
	}
	n, err := f.n, f.err
	futurePool.Put(f)
	return n, err
}

// finish completes the operation with n and err at shard clock reading end:
// the one place a served operation's latency and bytes are observed on its
// tenant (a failure observes nothing), its handle and buffer are let go — a
// pooled future must not pin a caller's buffer — and its waiter is released.
// Nothing may touch f afterwards: Wait may already have recycled it.
//
//buddy:hotpath
func (f *Future) finish(end uint64, n int, err error) {
	if err == nil {
		f.h.tn.observe(latency(end, f.stamp), n)
	}
	f.n, f.err = n, err
	f.h, f.buf = nil, nil
	f.wg.Done()
}

// Coalescing limits: a run stops growing at maxRunTasks constituent
// operations or maxRunBytes of payload (the staging buffer's size; 1024
// entries).
const (
	maxRunTasks = 32
	maxRunBytes = 128 << 10
)

// coalesceBufPool recycles the staging buffer a coalesced run is executed
// through.
var coalesceBufPool = sync.Pool{New: func() any {
	b := make([]byte, maxRunBytes)
	return &b
}}

// spanEligible reports whether an operation can participate in a coalesced
// entry span: entry-aligned offset and length, and a span that stays within
// the allocation's full entries (a partial tail entry needs WriteAt's
// read-modify-write, which a batch span bypasses).
//
//buddy:hotpath
func spanEligible(t *Future) bool {
	if t.off < 0 || len(t.buf) == 0 {
		return false
	}
	if t.off%core.EntryBytes != 0 || len(t.buf)%core.EntryBytes != 0 {
		return false
	}
	size := t.h.a.Size()
	return t.off+int64(len(t.buf)) <= size-size%core.EntryBytes
}

// coalescible reports whether next extends the run ending in prev: same
// operation, same handle, span-eligible, and byte-contiguous. Handles are
// canonical (the pool returns one *Handle per allocation), so pointer
// equality is allocation equality.
//
//buddy:hotpath
func coalescible(prev, next *Future) bool {
	if next.kind != prev.kind || next.h != prev.h {
		return false
	}
	if next.off != prev.off+int64(len(prev.buf)) {
		return false
	}
	return spanEligible(next)
}

// worker drains one shard's scheduler. Each dequeue hands it a window of
// operations from a single tenant's ring (the scheduler's priority/DRR
// choice), and the window is executed as maximal coalescible runs, in that
// ring's FIFO order: coalescing never reorders and never crosses tenants.
// With one worker per shard that makes each submitter's operations take
// effect in submission order. A second worker on the shard may run the
// ring's next window while this one is still running, so with Workers > 1
// the order holds within a window only, and per-submitter FIFO is given up.
//
//buddy:hotpath
func (p *Pool) worker(shard int) {
	defer p.wg.Done()
	s := p.scheds[shard]
	var run [maxRunTasks]*Future
	for {
		n := s.dequeue(&run)
		if n == 0 {
			return
		}
		for i := 0; i < n; {
			j := i + 1
			if spanEligible(run[i]) {
				bytes := len(run[i].buf)
				for j < n && bytes+len(run[j].buf) <= maxRunBytes && coalescible(run[j-1], run[j]) {
					bytes += len(run[j].buf)
					j++
				}
			}
			p.execRun(s, run[i:j])
			i = j
		}
	}
}

// execRun executes one run of operations. A single one goes straight
// through exec; a coalesced run stages its payload in one pooled buffer and
// moves it through the same byte-addressed path as one operation — the run is
// span-eligible, entry-aligned whole entries, so the allocation's Access
// hands it to the batch entry primitives undivided — then finishes every
// constituent future with its own byte count. If the batch fails, the run is
// replayed one by one so each future reports exactly the n/err uncoalesced
// execution would have produced. On success the shard's modeled clock
// advances by what the run charged, once, and every constituent's latency is
// measured to that reading.
//
//buddy:hotpath
func (p *Pool) execRun(s *sched, fs []*Future) {
	if len(fs) == 1 {
		p.exec(s, fs[0], true)
		return
	}
	p.async.coalescedRuns.Add(1)
	p.async.coalescedTasks.Add(uint64(len(fs)))
	write := fs[0].kind == opWrite
	total := 0
	for _, f := range fs {
		total += len(f.buf)
	}
	buf := coalesceBufPool.Get().(*[]byte)
	span := (*buf)[:total]
	if write {
		off := 0
		for _, f := range fs {
			off += copy(span[off:], f.buf)
		}
	}
	_, cost, err := fs[0].h.a.Access(span, fs[0].off, write)
	if err != nil {
		// Batch failed (e.g. the allocation was freed mid-run): replay
		// individually for exact per-operation results.
		coalesceBufPool.Put(buf)
		for _, f := range fs {
			p.exec(s, f, true)
		}
		return
	}
	end := s.advance(cost)
	// The run's effect on the device is complete: it stops counting as
	// pending before its futures finish, so a caller returning from Wait
	// finds the shard quiescent again.
	s.pending.Add(int64(-len(fs)))
	off := 0
	for _, f := range fs {
		n := len(f.buf) // finish lets the buffer go: size and copy-out first
		if !write {
			copy(f.buf, span[off:off+n])
		}
		off += n
		f.finish(end, n, nil)
	}
	coalesceBufPool.Put(buf)
}

// exec executes one operation through the allocation's byte-addressed path
// and finishes it — the one route a worker's single operation (queued: it
// stops counting as pending first, as in execRun) and the submitter's
// in-place one take. The I/O goes through the allocation, not through the
// queue the operation sat on, so one queued just before a migration cutover
// still lands on the right device. A success advances the shard's modeled
// clock; a failure does not.
//
//buddy:hotpath
func (p *Pool) exec(s *sched, f *Future, queued bool) {
	n, cost, err := f.h.a.Access(f.buf, f.off, f.kind == opWrite)
	var end uint64
	if err == nil {
		end = s.advance(cost)
	}
	if queued {
		s.pending.Add(-1)
	}
	f.finish(end, n, err)
}

// inPlaceMaxBytes is the largest operation the submitter may run to
// completion itself. It is a constant, not a Config field, for the same
// reason bulkGrainEntries is one layer down: it marks where moving the work
// stops costing a large share of doing it. Queueing costs a worker wake-up
// and a submitter wake-up, ~0.6 µs of CPU per round trip, against ~0.4 µs
// per entry through the entry path; past eight entries the hand-off is
// under a fifth of the operation and coalescing starts to pay for it.
const inPlaceMaxBytes = 8 * core.EntryBytes

// submit checks a future out for one operation and routes it to the handle's
// shard, three ways. A closed shard fails it at once. An operation of at most
// inPlaceMaxBytes that finds the shard with nothing pending — nothing on any
// tenant ring, nothing dequeued and still executing — runs to completion on
// the submitter's goroutine (exec) and its future returns finished: with
// nothing pending there is nothing for priority, DRR or coalescing to decide,
// and two goroutine hand-offs cost more than the operation. Everything else
// is queued on the tenant's ring there, blocking while the ring is full;
// Close while a submit is parked on a full ring fails it cleanly too.
//
// Ordering contract: an operation is served in place only if every operation
// queued on the shard before it has taken effect, so a submitter never
// overtakes its own earlier submissions (one worker per shard keeps a
// submitter's operations FIFO, exactly as when everything queued). "Ring
// empty" alone would not do: a dequeued write still executing on a worker
// would be overtaken. The owning shard is read per submission, one atomic
// load and no lock: a migrated handle is served on, or enqueues on, its new
// shard. The shard only picks the queue and the clock — the bytes go through
// the allocation, where every entry is under its own lock — so a submit
// racing a cutover is correct on either side of it. What a cutover does not
// carry over is FIFO against operations still queued on the old shard
// (DESIGN.md "Async fast path").
func (p *Pool) submit(kind opKind, h *Handle, buf []byte, off int64) *Future {
	f := futurePool.Get().(*Future)
	f.kind, f.h, f.buf, f.off = kind, h, buf, off
	f.waited.Store(false)
	f.wg.Add(1)
	shard := h.Shard()
	s := p.scheds[shard]
	f.stamp = s.clock.Load()
	// Either enter finds the shard closed, or Close waits for this submit:
	// it runs in place before Close returns, or its enqueue lands before the
	// shard closes (and drains) or the scheduler refuses it with ErrClosed.
	switch {
	case s.enter()&closedBit != 0:
		f.finish(0, 0, fmt.Errorf("pool: submit on shard %d: %w", shard, ErrClosed))
	case len(buf) <= inPlaceMaxBytes && s.pending.Load() == 0:
		p.exec(s, f, false)
		h.tn.submitted.Add(1) // before inline: Stats reads inline first
		s.inline.Add(1)
	default:
		// Once enqueue returns nil a worker may have finished f and Wait
		// recycled it: only a refused future is still this submit's to touch.
		if err := s.enqueue(f, h.tn); err != nil {
			f.finish(0, 0, fmt.Errorf("pool: submit on shard %d: %w", shard, err))
		} else {
			h.tn.submitted.Add(1)
		}
	}
	s.exit()
	return f
}

// SubmitWrite asynchronously writes data at byte offset off of the
// handle's allocation. The caller must not mutate data until the future
// completes. Backpressure: SubmitWrite blocks while the owning shard's
// queue is at its configured depth. A small write to a quiescent shard is
// executed before SubmitWrite returns (see submit). The steady-state
// submit→complete path allocates nothing.
//
// Order holds per submitter only while the owning shard has one worker:
// when GOMAXPROCS ≤ the pool's shard count under the default Workers, or
// when Workers is 1. Each submitter's operations then take effect in
// submission order (last write wins per offset). With more workers, two
// in-flight submits to overlapping bytes may complete in either order; wait
// for the first before submitting the second when order matters.
func (p *Pool) SubmitWrite(h *Handle, data []byte, off int64) *Future {
	return p.submit(opWrite, h, data, off)
}

// SubmitRead asynchronously reads into dst from byte offset off of the
// handle's allocation. The caller must not touch dst until the future
// completes. A read orders against in-flight writes to the same bytes as
// SubmitWrite says: in submission order only while the shard has one
// worker.
func (p *Pool) SubmitRead(h *Handle, dst []byte, off int64) *Future {
	return p.submit(opRead, h, dst, off)
}
