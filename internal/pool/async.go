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
// The queued path is allocation-free and batch-shaped: tasks and futures are
// recycled through sync.Pools, completion is a WaitGroup-style semaphore
// (the Done channel materializes lazily, only for select-users), and each
// dequeued window — drawn from a single tenant's ring, in FIFO order — is
// executed as maximal coalescible runs of adjacent tasks (same allocation,
// same kind, contiguous entry-aligned offsets) dispatched through the
// device's batch WriteEntries/ReadEntries primitives. A client streaming
// small chunks therefore still reaches the batch data path: the queue, not
// the submission size, sets the dispatch granularity — and coalescing
// never crosses a tenant boundary, because a window never does.

// opKind selects an async operation.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// Future is the pending result of a submitted operation.
//
// Lifecycle: a Future is checked out of an internal pool by SubmitWrite/
// SubmitRead and recycled when Wait returns. Wait must therefore be called
// exactly once, and no method may be called after it returns — a retained
// pointer may already belong to a later submission. Code that selects on
// Done must still call Wait afterwards to read the result and release the
// future.
type Future struct {
	n   int
	err error

	wg sync.WaitGroup // 1 while pending; Done()ed by complete

	mu        sync.Mutex // guards ch and completed
	ch        chan struct{}
	completed bool

	// waited turns a second Wait into a panic instead of silent
	// corruption of a recycled future (best effort: it cannot catch a
	// second Wait that races a re-checkout).
	waited atomic.Bool
}

var futurePool = sync.Pool{New: func() any { return new(Future) }}

func getFuture() *Future {
	f := futurePool.Get().(*Future)
	f.n, f.err = 0, nil
	f.completed = false
	f.ch = nil
	f.waited.Store(false)
	f.wg.Add(1)
	return f
}

// Done returns a channel closed when the operation has completed, for
// callers multiplexing with select. Wait must still be called to observe
// the result; Done must not be called after Wait has returned.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	if f.ch == nil {
		f.ch = make(chan struct{})
		if f.completed {
			close(f.ch)
		}
	}
	ch := f.ch
	f.mu.Unlock()
	return ch
}

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

func (f *Future) complete(n int, err error) {
	f.n, f.err = n, err
	f.mu.Lock()
	f.completed = true
	ch := f.ch
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	f.wg.Done()
}

// task is one queued operation. stamp is the submitting shard's modeled
// clock reading at enqueue time; completion latency is the clock distance
// from stamp to the run's completion (sched.advance, latency).
type task struct {
	kind  opKind
	h     *Handle
	buf   []byte
	off   int64
	fut   *Future
	stamp uint64
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

func putTask(t *task) {
	t.h = nil
	t.buf = nil
	t.fut = nil
	taskPool.Put(t)
}

// Coalescing limits: a run stops growing at maxRunTasks constituent tasks
// or maxRunBytes of payload (the staging buffer's size; 1024 entries).
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

// spanEligible reports whether a task can participate in a coalesced entry
// span: entry-aligned offset and length, and a span that stays within the
// allocation's full entries (a partial tail entry needs WriteAt's
// read-modify-write, which a batch span bypasses).
//
//buddy:hotpath
func spanEligible(t *task) bool {
	if t.off < 0 || len(t.buf) == 0 {
		return false
	}
	if t.off%core.EntryBytes != 0 || len(t.buf)%core.EntryBytes != 0 {
		return false
	}
	size := t.h.size
	return t.off+int64(len(t.buf)) <= size-size%core.EntryBytes
}

// coalescible reports whether next extends the run ending in prev: same
// operation, same handle, span-eligible, and byte-contiguous. Handles are
// canonical (the pool returns one *Handle per allocation), so pointer
// equality is allocation equality.
//
//buddy:hotpath
func coalescible(prev, next *task) bool {
	if next.kind != prev.kind || next.h != prev.h {
		return false
	}
	if next.off != prev.off+int64(len(prev.buf)) {
		return false
	}
	return spanEligible(next)
}

// worker drains one shard's scheduler. Each dequeue hands it a window of
// tasks from a single tenant's ring (the scheduler's priority/DRR choice),
// and the window is executed as maximal coalescible runs, in that ring's
// FIFO order — per-tenant ordering is preserved exactly; coalescing never
// reorders and never crosses tenants.
//
//buddy:hotpath
func (p *Pool) worker(shard int) {
	defer p.wg.Done()
	s := p.scheds[shard]
	var run [maxRunTasks]*task
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

// execRun executes one run of tasks. A single task goes straight through
// the byte-addressed path; a coalesced run stages its payload in one pooled
// buffer and moves it through the same path as one operation — the run is
// span-eligible, entry-aligned whole entries, so the allocation's
// Access hands it to the batch entry primitives undivided — then completes
// every constituent future with its own byte count. If the batch fails, the
// run is replayed task by task so each future reports exactly the n/err
// uncoalesced execution would have produced. On success the shard's modeled
// clock advances by what the run charged and every constituent task's
// latency is observed on its tenant.
//
//buddy:hotpath
func (p *Pool) execRun(s *sched, ts []*task) {
	if len(ts) == 1 {
		p.execQueued(s, ts[0])
		return
	}
	p.async.coalescedRuns.Add(1)
	p.async.coalescedTasks.Add(uint64(len(ts)))
	h := ts[0].h
	total := 0
	for _, t := range ts {
		total += len(t.buf)
	}
	buf := coalesceBufPool.Get().(*[]byte)
	span := (*buf)[:total]
	if ts[0].kind == opWrite {
		off := 0
		for _, t := range ts {
			off += copy(span[off:], t.buf)
		}
	}
	_, cost, err := h.a.Access(span, ts[0].off, ts[0].kind == opWrite)
	if err != nil {
		// Batch failed (e.g. the allocation was freed mid-run): replay
		// individually for exact per-task results.
		coalesceBufPool.Put(buf)
		for _, t := range ts {
			p.execQueued(s, t)
		}
		return
	}
	end := s.advance(cost)
	// The run's effect on the device is complete: it stops counting as
	// pending before its futures complete, so a caller returning from Wait
	// finds the shard quiescent again.
	s.pending.Add(int64(-len(ts)))
	tn := h.tn
	off := 0
	for _, t := range ts {
		if t.kind == opRead {
			copy(t.buf, span[off:off+len(t.buf)])
		}
		off += len(t.buf)
		tn.observe(latency(end, t.stamp), len(t.buf))
		t.fut.complete(len(t.buf), nil)
		putTask(t)
	}
	coalesceBufPool.Put(buf)
}

// execQueued executes one dequeued task on a worker and completes its
// future. The I/O goes through the allocation, not through the queue the
// task sat on, so a task queued just before a migration cutover still
// lands on the right device.
//
//buddy:hotpath
func (p *Pool) execQueued(s *sched, t *task) {
	n, err := p.execOne(s, t)
	s.pending.Add(-1)
	t.fut.complete(n, err)
	putTask(t)
}

// execOne executes a single operation through the allocation's
// byte-addressed path — the one route both the shard workers and the
// in-place path take. A successful operation advances the shard's modeled
// clock and observes its latency on the owning tenant; a failure touches
// neither.
//
//buddy:hotpath
func (p *Pool) execOne(s *sched, t *task) (int, error) {
	h := t.h
	n, cost, err := h.a.Access(t.buf, t.off, t.kind == opWrite)
	if err == nil {
		h.tn.observe(latency(s.advance(cost), t.stamp), n)
	}
	return n, err
}

// inPlaceMaxBytes is the largest operation the submitter may run to
// completion itself. It is a constant, not a Config field, for the same
// reason bulkGrainEntries is one layer down: it marks where moving the work
// stops costing a large share of doing it. Queueing costs a worker wake-up
// and a submitter wake-up, ~0.6 µs of CPU per round trip, against ~0.4 µs
// per entry through the entry path; past eight entries the hand-off is
// under a fifth of the operation and coalescing starts to pay for it.
const inPlaceMaxBytes = 8 * core.EntryBytes

// submit routes one operation to the handle's shard. An operation of at
// most inPlaceMaxBytes that finds the shard with nothing pending is served
// in place (serveInPlace) and its future returns completed; everything else
// is queued on the tenant's ring there, blocking while the ring is full. A
// closed pool fails the future immediately; Close while a submit is parked
// on a full ring fails it cleanly too.
func (p *Pool) submit(kind opKind, h *Handle, buf []byte, off int64) *Future {
	fut := getFuture()
	// subMu is read-held from the closed check to the return. Close stores
	// the flag, shuts the schedulers down, then takes subMu exclusively:
	// either this submit observes closed, or Close waits for it — it runs in
	// place before Close returns, or its enqueue lands before shutdown (and
	// drains) or returns ErrClosed from the scheduler itself.
	p.subMu.RLock()
	if p.closed.Load() {
		p.subMu.RUnlock()
		fut.complete(0, fmt.Errorf("pool: submit on shard %d: %w", h.Shard(), ErrClosed))
		return fut
	}
	if shard, served := p.serveInPlace(kind, h, buf, off, fut); !served {
		t := taskPool.Get().(*task)
		t.kind, t.h, t.buf, t.off, t.fut = kind, h, buf, off, fut
		s := p.scheds[shard]
		t.stamp = s.clock.Load()
		if err := s.enqueue(t, h.tn); err != nil {
			fut.complete(0, fmt.Errorf("pool: submit on shard %d: %w", shard, err))
			putTask(t)
		} else {
			p.async.queued.Add(1)
			h.tn.submitted.Add(1)
		}
	}
	p.subMu.RUnlock()
	return fut
}

// serveInPlace is the run-to-completion path: it resolves the handle's
// owning shard and, when the operation is small and that shard has nothing
// pending — no task on any tenant ring, none dequeued and still executing —
// runs it on the submitter's goroutine through execOne and completes fut.
// With nothing pending there is nothing for priority, DRR or coalescing to
// decide, and two goroutine hand-offs cost more than the operation.
//
// Ordering contract: an operation is served in place only if every
// operation queued on the shard before it has taken effect, so a submitter
// never overtakes its own earlier submissions (one worker per shard keeps a
// submitter's operations FIFO, exactly as when everything queued). "Ring
// empty" alone would not do: a dequeued write still executing on a worker
// would be overtaken. The owning shard is read per submission, one atomic
// load and no lock: a migrated handle is served on, or enqueues on, its new
// shard. The shard only picks the queue and the clock — the bytes go through
// the allocation, where every entry is under its own lock — so a submit
// racing a cutover is correct on either side of it. What a cutover does not
// carry over is FIFO against operations still queued on the old shard
// (DESIGN.md "Async fast path").
//
//buddy:hotpath
func (p *Pool) serveInPlace(kind opKind, h *Handle, buf []byte, off int64, fut *Future) (shard int, served bool) {
	shard = h.Shard()
	s := p.scheds[shard]
	if len(buf) > inPlaceMaxBytes || s.pending.Load() != 0 {
		return shard, false
	}
	t := task{kind: kind, h: h, buf: buf, off: off, stamp: s.clock.Load()}
	n, err := p.execOne(s, &t)
	p.async.inline.Add(1)
	h.tn.submitted.Add(1)
	fut.complete(n, err)
	return shard, true
}

// SubmitWrite asynchronously writes data at byte offset off of the
// handle's allocation. The caller must not mutate data until the future
// completes. Backpressure: SubmitWrite blocks while the owning shard's
// queue is at its configured depth. A small write to a quiescent shard is
// executed before SubmitWrite returns (see submit). The steady-state
// submit→complete path allocates nothing.
func (p *Pool) SubmitWrite(h *Handle, data []byte, off int64) *Future {
	return p.submit(opWrite, h, data, off)
}

// SubmitRead asynchronously reads into dst from byte offset off of the
// handle's allocation. The caller must not touch dst until the future
// completes.
func (p *Pool) SubmitRead(h *Handle, dst []byte, off int64) *Future {
	return p.submit(opRead, h, dst, off)
}
