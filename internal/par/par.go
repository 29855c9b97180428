// Package par is the program's one fan-out: the device's span passes, the
// analysis index build and snapshot synthesis all cut their work into
// pieces and hand it to Run, which runs the pieces on its caller and on
// helper goroutines occupying only cores no other job is using.
//
// The helpers are process-wide: at most GOMAXPROCS-1 of them start, on first
// need, and then park between jobs, so a Run in the steady state starts no
// goroutine and allocates nothing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is work cut into pieces that may run concurrently and in any order.
type Job interface {
	// Do runs piece i.
	Do(i int)
}

var (
	// inside counts the goroutines inside a job, callers included, across
	// the process.
	inside atomic.Int32
	// helpers counts the helpers started; none ever exits.
	helpers atomic.Int32
	// parked is where idle helpers wait. Unbuffered, so a non-blocking send
	// reaches only a helper waiting at that moment.
	parked = make(chan *run)
)

// run is one Run's shared state.
type run struct {
	j     Job
	n     int32
	procs int32 // GOMAXPROCS, read once per Run
	next  atomic.Int32
	wg    sync.WaitGroup // the helpers that joined
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// Run runs j's pieces 0..n-1 and returns once all have run. The caller
// always works; idle helpers may join it. When n is at most 1 or GOMAXPROCS
// is 1, the pieces run on the caller, in order. A piece may itself call Run.
//
//buddy:hotpath
func Run(n int, j Job) {
	procs := runtime.GOMAXPROCS(0)
	if n <= 1 || procs == 1 {
		for i := 0; i < n; i++ {
			j.Do(i)
		}
		return
	}
	r := runPool.Get().(*run)
	r.j, r.n, r.procs = j, int32(n), int32(procs)
	r.next.Store(0)
	inside.Add(1)
	r.work()
	r.wg.Wait()
	r.j = nil
	runPool.Put(r)
}

// work claims pieces with one atomic add each and runs them until none is
// left. Before each claim that leaves a piece for someone else, it tries to
// recruit one more goroutine.
//
//buddy:hotpath
func (r *run) work() {
	for {
		if r.next.Load() < r.n-1 {
			r.recruit()
		}
		i := r.next.Add(1) - 1
		if i >= r.n {
			break
		}
		r.j.Do(int(i))
	}
	inside.Add(-1)
}

// recruit hands r to a parked helper, or to a new one while fewer than
// GOMAXPROCS-1 exist — but only while the goroutines inside a job, the
// recruit included, stay at or under GOMAXPROCS: concurrent callers that
// already fill the cores add no helpers.
//
//buddy:hotpath
func (r *run) recruit() {
	if inside.Load() >= r.procs {
		return
	}
	if inside.Add(1) > r.procs {
		inside.Add(-1)
		return
	}
	r.wg.Add(1)
	select {
	case parked <- r:
		return
	default:
	}
	if h := helpers.Load(); h < r.procs-1 && helpers.CompareAndSwap(h, h+1) {
		startHelper(r)
		return
	}
	r.wg.Done()
	inside.Add(-1)
}

// startHelper starts a helper on r. Once done with a job, a helper never
// touches it again, and parks for the next.
func startHelper(r *run) {
	go func() {
		for {
			r.work()
			r.wg.Done()
			r = <-parked
		}
	}()
}
