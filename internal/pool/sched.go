package pool

import (
	"sync"
	"sync/atomic"

	"buddy/internal/core"
)

// Per-shard tenant-aware scheduler, replacing the FIFO submission
// channel: each shard keeps one fixed-capacity task ring per tenant and
// dequeues with strict priority across classes (an escape valve prevents
// starvation) and deficit round-robin across the tenants within a class
// (long-run served bytes proportional to configured weights). A dequeue
// hands the worker a window drawn from a single tenant's ring, so the
// worker's run-coalescing never merges tasks across tenants — and within
// one tenant it behaves exactly like the old FIFO window.
//
// The scheduler also owns the shard's modeled virtual clock: each
// completed run advances it by what the run's passes charged the ledgers,
// priced by the shard's device (core.Device.Cycles), and a task's modeled
// latency is the clock distance from submit to completion — queueing
// included. Everything on the enqueue/dequeue path is allocation-free:
// rings are preallocated, the DRR state is plain integers, and blocking
// (full ring, empty shard) parks on sync.Cond.

const (
	// numClasses is the number of strict priority classes; TenantConfig
	// priorities clamp into [0, numClasses).
	numClasses = 4

	// escapeEvery is the anti-starvation valve: after this many
	// consecutive dequeues served from a higher class while lower-class
	// work was waiting, one dequeue is granted to a starved lower class
	// (rotating among them), bounding any tenant's wait to
	// escapeEvery runs.
	escapeEvery = 16

	// drrQuantum is the byte credit a weight-1 tenant's ring earns per
	// scheduler visit; a tenant's per-visit credit is drrQuantum x weight.
	// Large enough that a weight-1 tenant still dispatches a coalescible
	// multi-task window per turn.
	drrQuantum = 32 << 10

	// taskCostFloor is added to every task's byte cost so zero- and
	// tiny-payload tasks still drain deficit (count-fairness floor of one
	// entry per task).
	taskCostFloor = core.EntryBytes
)

// taskRing is one tenant's fixed-capacity FIFO on one shard.
type taskRing struct {
	buf     []*Future
	head, n int
	deficit int64 // DRR byte credit
}

//buddy:hotpath
func (r *taskRing) push(t *Future) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = t
	r.n++
}

//buddy:hotpath
func (r *taskRing) peek() *Future { return r.buf[r.head] }

//buddy:hotpath
func (r *taskRing) pop() *Future {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return t
}

// sched is one shard's scheduler.
type sched struct {
	// life is the shard's lifecycle word (drain.go). Every submit on the
	// shard writes it twice, so it has a cache line to itself, shared only
	// with inline, which an in-place submit writes between those two
	// writes.
	_      [64]byte
	life   atomic.Uint64
	inline atomic.Uint64 // operations served in place by their submitter
	_      [48]byte

	mu    sync.Mutex
	more  sync.Cond // workers wait here for queued work, and Close for the in-flight count
	space sync.Cond // submitters wait here for ring space

	tens    []*tenant // pool's tenants, by index
	rings   []taskRing
	total   int               // queued tasks across all rings
	count   [numClasses]int   // queued tasks per class
	classes [numClasses][]int // tenant indexes per class
	cursor  [numClasses]int   // DRR rotation point per class
	hiRuns  int               // consecutive higher-class dequeues over waiting lower-class work
	valve   int               // rotates escape-valve grants among starved classes

	// clock is the shard's modeled virtual time in device+link cycles, fixed
	// point with clockFracBits fractional bits: an operation may cost a fraction of
	// a cycle (one entry is 0.05 to 0.2). dev prices what advances it.
	clock atomic.Uint64
	dev   *core.Device

	// pending counts the shard's unfinished queued work: tasks on any ring
	// plus dequeued tasks a worker has not finished executing. Zero means
	// the shard is quiescent, which is what lets a small operation run in
	// place without overtaking anything (Pool.submit).
	pending atomic.Int64
}

func newSched(dev *core.Device, tens []*tenant, depth int) *sched {
	s := &sched{dev: dev, tens: tens, rings: make([]taskRing, len(tens))}
	s.more.L = &s.mu
	s.space.L = &s.mu
	for i := range s.rings {
		s.rings[i].buf = make([]*Future, depth)
	}
	for i, t := range tens {
		s.classes[t.cls] = append(s.classes[t.cls], i)
	}
	return s
}

// enter counts a call in flight on the shard, which Close waits for, until
// its exit; it returns the word it found, and a call finding closed refuses.
//
//buddy:hotpath
func (s *sched) enter() uint64 { return s.life.Add(1) }

// exit ends a call enter counted. The last one out of a closed shard wakes
// Close, under mu, so the wake-up cannot fall between Close's check and wait.
//
//buddy:hotpath
func (s *sched) exit() {
	if w := s.life.Add(^uint64(0)); w&closedBit != 0 && w&countMask == 0 {
		s.mu.Lock()
		s.more.Broadcast()
		s.mu.Unlock()
	}
}

// close sets the closed bit (a CAS loop: go1.24.0 on amd64 miscompiles a
// loop testing Uint64.Or's result) or reports it set already. Then it wakes
// parked submitters (refused) and idle workers (which exit once the backlog
// drains), and waits until no call is in flight on the shard.
func (s *sched) close() (already bool) {
	w := s.life.Load()
	for w&closedBit == 0 && !s.life.CompareAndSwap(w, w|closedBit) {
		w = s.life.Load()
	}
	if w&closedBit != 0 {
		return true
	}
	s.mu.Lock()
	s.space.Broadcast()
	s.more.Broadcast()
	for s.life.Load()&countMask != 0 {
		s.more.Wait()
	}
	s.mu.Unlock()
	return false
}

// enqueue appends a task to its tenant's ring, blocking while the ring is
// at capacity. Per-tenant backpressure is the point: one tenant's backlog
// fills its own ring and parks its own submitters without taking queue
// space from anyone else.
//
//buddy:hotpath
func (s *sched) enqueue(t *Future, tn *tenant) error {
	s.mu.Lock()
	r := &s.rings[tn.idx]
	for r.n == len(r.buf) && s.life.Load()&closedBit == 0 {
		s.space.Wait()
	}
	if s.life.Load()&closedBit != 0 {
		s.mu.Unlock()
		return ErrClosed
	}
	s.pending.Add(1)
	r.push(t)
	s.total++
	s.count[tn.cls]++
	tn.queued.Add(1) // under s.mu, like drr's decrement: a snapshot never reads negative
	s.more.Signal()
	s.mu.Unlock()
	return nil
}

// dequeue fills run with the next window of tasks — all from one tenant,
// in that tenant's FIFO order — and returns how many, blocking while the
// shard is idle. Returns 0 only when the shard has closed and the backlog
// is drained.
//
//buddy:hotpath
func (s *sched) dequeue(run *[maxRunTasks]*Future) int {
	s.mu.Lock()
	for s.total == 0 {
		if s.life.Load()&closedBit != 0 {
			s.mu.Unlock()
			return 0
		}
		s.more.Wait()
	}
	// Strict priority: serve the highest non-empty class — unless
	// lower-class work has now waited escapeEvery consecutive
	// higher-class dequeues, in which case one starved class (rotating
	// among them) gets this turn.
	hi := numClasses - 1
	for s.count[hi] == 0 {
		hi--
	}
	c := hi
	var below [numClasses]int
	nb := 0
	for k := hi - 1; k >= 0; k-- {
		if s.count[k] > 0 {
			below[nb] = k
			nb++
		}
	}
	if nb > 0 {
		s.hiRuns++
		if s.hiRuns >= escapeEvery {
			s.hiRuns = 0
			c = below[s.valve%nb]
			s.valve++
		}
	} else {
		s.hiRuns = 0
	}
	n := s.drr(c, run)
	s.space.Broadcast()
	s.mu.Unlock()
	return n
}

// drr serves one window from class c (which must have queued work) by
// deficit round-robin: scan the class's tenants from the rotation cursor,
// topping each non-empty ring's byte credit up by quantum x weight per
// visit, and serve the first ring whose credit covers its head task.
// Repeated scans make every deficit grow, so a non-empty class always
// serves. A ring holding the shard's only queued work bypasses the
// deficit entirely — with no competitor, throttling a lone tenant to its
// quantum would only shrink the coalescing window.
//
//buddy:hotpath
func (s *sched) drr(c int, run *[maxRunTasks]*Future) int {
	ten := s.classes[c]
	for {
		for k := 0; k < len(ten); k++ {
			pos := s.cursor[c] + k
			if pos >= len(ten) {
				pos -= len(ten)
			}
			i := ten[pos]
			r := &s.rings[i]
			if r.n == 0 {
				continue
			}
			tn := s.tens[i]
			r.deficit += drrQuantum * tn.weight
			lone := r.n == s.total
			if !lone && r.deficit < taskCost(r.peek()) {
				continue
			}
			n, bytes := 0, 0
			for r.n > 0 && n < maxRunTasks {
				t := r.peek()
				if n > 0 && bytes+len(t.buf) > maxRunBytes {
					break
				}
				cost := taskCost(t)
				if !lone && r.deficit < cost {
					break
				}
				r.pop()
				r.deficit -= cost
				run[n] = t
				n++
				bytes += len(t.buf)
			}
			if r.n == 0 || (lone && r.deficit < 0) {
				// An emptied ring does not hoard credit, and the lone-queue
				// bypass does not bank debt against a competitor that shows
				// up later.
				r.deficit = 0
			}
			s.total -= n
			s.count[c] -= n
			s.cursor[c] = pos + 1
			if s.cursor[c] >= len(ten) {
				s.cursor[c] = 0
			}
			tn.queued.Add(int64(-n))
			return n
		}
	}
}

// taskCost is a task's DRR byte cost: payload plus a one-entry floor.
//
//buddy:hotpath
func taskCost(t *Future) int64 { return int64(len(t.buf)) + taskCostFloor }

// clockFracBits is the clock's resolution: 1/1024 cycle.
const clockFracBits = 10

// advance moves the shard's modeled clock by the cycles cost is priced at on
// the shard's device — what the operation's passes charged, wherever a
// relayout in flight had its entries — and returns the new clock reading.
//
//buddy:hotpath
func (s *sched) advance(cost core.Cost) uint64 {
	return s.clock.Add(uint64(s.dev.Cycles(cost)*(1<<clockFracBits) + 0.5))
}

// latency is the modeled completion latency of a task stamped at stamp and
// completed at clock reading end, in whole cycles rounded up: queueing behind
// other tenants' runs is part of it, and no completed operation took zero.
//
//buddy:hotpath
func latency(end, stamp uint64) uint64 {
	return (end - stamp + 1<<clockFracBits - 1) >> clockFracBits
}
