package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/race"
)

// newAsyncPool builds a pool with explicit worker/queue settings for the
// async-path tests.
func newAsyncPool(t *testing.T, shards, workers, depth int) *Pool {
	t.Helper()
	devices := make([]*core.Device, shards)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 4 << 20})
	}
	p, err := New(devices, Config{Workers: workers, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// TestSubmitSteadyStateZeroAlloc proves the tentpole acceptance criterion:
// after warm-up, the submit→complete round trip allocates nothing on either
// path. Queued (an operation above inPlaceMaxBytes): the future comes from a
// pool and sits on the ring as itself, completion is channel-free, and the
// worker stages coalesced runs in pooled buffers. In place (a one-entry
// operation on a quiescent shard): the same future, never queued.
// AllocsPerRun counts allocations process-wide, so worker-side allocations
// would fail this test too. The tenant leg submits through a configured
// non-default tenant in a higher priority class, so the classed
// weighted-fair dequeue, admission plumbing and latency recording are all
// on the measured path.
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	t.Run("default", func(t *testing.T) {
		p := newAsyncPool(t, 1, 1, 8)
		h, err := p.Malloc("steady", 64*core.EntryBytes, core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		checkSteadyZeroAlloc(t, p, h)
	})
	t.Run("tenant", func(t *testing.T) {
		devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 4 << 20})}
		p, err := New(devices, Config{Workers: 1, QueueDepth: 8, Tenants: map[string]TenantConfig{
			"latency": {Priority: 2, Weight: 2, CapacityBytes: 1 << 20},
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		door, err := p.Tenant("latency")
		if err != nil {
			t.Fatal(err)
		}
		h, err := door.Malloc("steady", 64*core.EntryBytes, core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		checkSteadyZeroAlloc(t, p, h)
	})
}

// checkSteadyZeroAlloc measures both dispatch paths on one closed-loop
// caller: Wait returning means the operation is no longer pending, so the
// shard is quiescent at every submit and the buffer size alone picks the
// path — which the Inline counter confirms.
func checkSteadyZeroAlloc(t *testing.T, p *Pool, h *Handle) {
	t.Helper()
	for _, leg := range []struct {
		name    string
		bytes   int
		inPlace bool
	}{
		{"queued", 2 * inPlaceMaxBytes, false},
		{"in-place", core.EntryBytes, true},
	} {
		buf := make([]byte, leg.bytes)
		pattern(buf, 3)
		// Warm up: first touches take stream-store slots and pool
		// entries.
		for i := 0; i < 32; i++ {
			if _, err := p.SubmitWrite(h, buf, int64(i%2*leg.bytes)).Wait(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.SubmitRead(h, buf, int64(i%2*leg.bytes)).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		before := p.Stats().Async
		if a := testing.AllocsPerRun(200, func() {
			if _, err := p.SubmitWrite(h, buf, 0).Wait(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: steady-state SubmitWrite+Wait allocates %.1f/op, want 0", leg.name, a)
		}
		if a := testing.AllocsPerRun(200, func() {
			if _, err := p.SubmitRead(h, buf, 0).Wait(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: steady-state SubmitRead+Wait allocates %.1f/op, want 0", leg.name, a)
		}
		after := p.Stats().Async
		ops, inline := after.Submitted-before.Submitted, after.Inline-before.Inline
		if leg.inPlace && inline != ops || !leg.inPlace && inline != 0 {
			t.Errorf("%s: %d of %d operations served in place", leg.name, inline, ops)
		}
	}
}

// TestCoalescingStress is the -race proof for the coalescing worker: many
// clients interleave contiguous entry-aligned streams (coalescible) with
// unaligned single writes (not coalescible) against shared shard queues, and
// every byte must read back exactly. Workers:1 keeps each shard FIFO so
// last-write-wins holds per offset. Chunks are above inPlaceMaxBytes, so
// every one of them is queued; the 3-byte tail write is not, and lands on
// whichever path the shard's backlog dictates.
func TestCoalescingStress(t *testing.T) {
	p := newAsyncPool(t, 2, 1, defaultQueueDepth)
	const clients = 8
	const chunk = inPlaceMaxBytes + 2*core.EntryBytes
	const chunks = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, err := p.Malloc(fmt.Sprintf("c%d", c), chunk*chunks+core.EntryBytes, core.Target2x)
			if err != nil {
				errs <- err
				return
			}
			want := make([]byte, chunk*chunks)
			pattern(want, byte(c))
			// Open-loop contiguous stream: adjacent chunks pile up on the
			// queue and the worker coalesces them.
			futs := make([]*Future, 0, chunks)
			for i := 0; i < chunks; i++ {
				futs = append(futs, p.SubmitWrite(h, want[i*chunk:(i+1)*chunk], int64(i*chunk)))
			}
			// Interleave a non-coalescible unaligned write near the tail.
			tailOff := int64(chunk * chunks)
			tail := []byte{0xAB, 0xCD, 0xEF}
			ft := p.SubmitWrite(h, tail, tailOff+5)
			for i, f := range futs {
				if n, err := f.Wait(); err != nil || n != chunk {
					errs <- fmt.Errorf("client %d chunk %d: n=%d err=%w", c, i, n, err)
					return
				}
			}
			if n, err := ft.Wait(); err != nil || n != len(tail) {
				errs <- fmt.Errorf("client %d tail: n=%d err=%w", c, n, err)
				return
			}
			// Read back through the async path in coalescible chunks too.
			got := make([]byte, len(want))
			rfuts := make([]*Future, 0, chunks)
			for i := 0; i < chunks; i++ {
				rfuts = append(rfuts, p.SubmitRead(h, got[i*chunk:(i+1)*chunk], int64(i*chunk)))
			}
			for i, f := range rfuts {
				if n, err := f.Wait(); err != nil || n != chunk {
					errs <- fmt.Errorf("client %d read %d: n=%d err=%w", c, i, n, err)
					return
				}
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: read-back mismatch", c)
				return
			}
			gtail := make([]byte, len(tail))
			if _, err := p.SubmitRead(h, gtail, tailOff+5).Wait(); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(gtail, tail) {
				errs <- fmt.Errorf("client %d: unaligned tail mismatch", c)
				return
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The open-loop streams must actually have exercised the coalescer.
	if st := p.Stats().Async; st.CoalescedRuns == 0 || st.CoalescedTasks < 2*st.CoalescedRuns {
		t.Fatalf("coalescer never engaged: %+v", st)
	}
}

// gatedCodec holds the one encode that finds it armed until release is
// closed — how these tests stop a shard's worker mid-operation at a known
// point: everything submitted meanwhile finds the shard pending, queues, and
// comes off the ring as one window.
type gatedCodec struct {
	compress.Codec
	armed            atomic.Bool
	entered, release chan struct{}
}

func (c *gatedCodec) AppendCompressed(dst, entry []byte) ([]byte, int) {
	if c.armed.CompareAndSwap(true, false) {
		close(c.entered)
		<-c.release
	}
	return c.Codec.AppendCompressed(dst, entry)
}

// completionCase is one way an operation gets from submit to finish: sizes
// are the entry counts of contiguous writes submitted open-loop. gated holds
// the worker mid-operation while they are submitted, so all of them queue and
// are dequeued as one window; closed closes their handle before any of them
// executes — before they are submitted, or, gated, once they are queued: the
// coalesced batch fails and the run is replayed one by one.
type completionCase struct {
	sizes         []int
	gated, closed bool
}

// checkCompletions runs one completionCase on a fresh one-shard pool and pins
// what finish owes each operation, once: its future reports the (n, err) the
// synchronous call does, and its tenant counts it submitted, its bytes served
// and its latency sampled exactly once (a failure is submitted and nothing
// else), with nothing left pending. It returns how the operations travelled.
func checkCompletions(t *testing.T, c completionCase) AsyncStats {
	t.Helper()
	gc := &gatedCodec{Codec: compress.NewBPC(), entered: make(chan struct{}), release: make(chan struct{})}
	dev := core.NewDevice(core.Config{DeviceBytes: 4 << 20, Codec: gc})
	p, err := New([]*core.Device{dev}, Config{Workers: 1, Tenants: map[string]TenantConfig{"svc": {Priority: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	door, err := p.Tenant("svc")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range c.sizes {
		total += n * core.EntryBytes
	}
	h, err := door.Malloc("ops", int64(total), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, total)
	pattern(data, 9)
	// What the synchronous call returns for every operation, on the handle
	// as the operations will find it.
	syncCall := func() (ns []int, errs []error) {
		off := 0
		for _, entries := range c.sizes {
			n, err := h.WriteAt(data[off:off+entries*core.EntryBytes], int64(off))
			ns, errs = append(ns, n), append(errs, err)
			off += entries * core.EntryBytes
		}
		return ns, errs
	}
	var wantN []int
	var wantErr []error
	if !c.closed {
		wantN, wantErr = syncCall()
	}
	ops, served := uint64(len(c.sizes)), uint64(0)
	var gate *Future
	if c.gated {
		gh, err := door.Malloc("gate", 2*inPlaceMaxBytes, core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		gbuf := make([]byte, 2*inPlaceMaxBytes)
		pattern(gbuf, 1)
		gc.armed.Store(true)
		gate = p.SubmitWrite(gh, gbuf, 0)
		<-gc.entered
		ops, served = ops+1, served+uint64(len(gbuf))
	} else if c.closed {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	futs := make([]*Future, 0, len(c.sizes))
	off := 0
	for _, n := range c.sizes {
		futs = append(futs, p.SubmitWrite(h, data[off:off+n*core.EntryBytes], int64(off)))
		off += n * core.EntryBytes
	}
	if c.gated {
		if c.closed {
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		close(gc.release)
		if _, err := gate.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if c.closed {
		wantN, wantErr = syncCall()
	}
	for i, f := range futs {
		n, err := f.Wait()
		if n != wantN[i] || fmt.Sprint(err) != fmt.Sprint(wantErr[i]) {
			t.Errorf("operation %d: n=%d err=%v, the synchronous call n=%d err=%v", i, n, err, wantN[i], wantErr[i])
		}
		if c.closed && !errors.Is(err, core.ErrFreed) {
			t.Errorf("operation %d on a closed handle: err=%v, want ErrFreed", i, err)
		}
		if err == nil {
			served += uint64(n)
		}
	}
	done := ops
	if c.closed {
		done -= uint64(len(c.sizes))
	}
	st := door.Stats()
	if st.Submitted != ops || st.ServedBytes != served || st.Latency.Count != done {
		t.Errorf("tenant counted %d submitted, %d B served, %d latencies; want %d, %d, %d",
			st.Submitted, st.ServedBytes, st.Latency.Count, ops, served, done)
	}
	if pending := p.scheds[0].pending.Load(); pending != 0 || st.QueueDepth != 0 {
		t.Errorf("after every Wait: pending %d, queue depth %d, want 0, 0", pending, st.QueueDepth)
	}
	as := p.Stats().Async
	if as.Submitted != ops {
		t.Errorf("Async.Submitted = %d, want %d", as.Submitted, ops)
	}
	return as
}

// TestOneCompletionSite walks the four ways from submit to finish — served
// in place, queued alone, coalesced, and coalesced then replayed because the
// handle was closed while the run sat on the ring — and checks each is
// completed once, with the synchronous call's result.
func TestOneCompletionSite(t *testing.T) {
	chunks := []int{9, 10, 9, 11, 9, 9, 10, 11} // all above inPlaceMaxBytes
	t.Run("in place", func(t *testing.T) {
		if as := checkCompletions(t, completionCase{sizes: []int{1}}); as.Inline != 1 || as.CoalescedRuns != 0 {
			t.Errorf("Async = %+v, want the operation served in place", as)
		}
	})
	t.Run("queued single", func(t *testing.T) {
		if as := checkCompletions(t, completionCase{sizes: []int{9}}); as.Inline != 0 || as.CoalescedRuns != 0 {
			t.Errorf("Async = %+v, want the operation queued and run alone", as)
		}
	})
	for _, closed := range []bool{false, true} {
		name := map[bool]string{false: "coalesced", true: "replayed after Close"}[closed]
		t.Run(name, func(t *testing.T) {
			as := checkCompletions(t, completionCase{sizes: chunks, gated: true, closed: closed})
			if as.Inline != 0 || as.CoalescedRuns != 1 || as.CoalescedTasks != uint64(len(chunks)) {
				t.Errorf("Async = %+v, want one coalesced run of %d", as, len(chunks))
			}
		})
	}
}

// TestCoalescedCompletionParity pins the per-operation results of a coalesced
// run to exactly what uncoalesced execution produces, on an ungated worker
// that coalesces whatever has piled up: each future reports its own
// submission's byte count, and a failing run (allocation freed before it was
// submitted) replays one by one so each future carries the error WriteAt
// would have returned.
func TestCoalescedCompletionParity(t *testing.T) {
	// Unequal chunks, all above inPlaceMaxBytes so each is queued.
	chunks := []int{9, 10, 9, 11, 9, 9, 10, 9}
	if as := checkCompletions(t, completionCase{sizes: chunks}); as.CoalescedTasks == 0 {
		t.Errorf("run never coalesced: %+v", as)
	}
	checkCompletions(t, completionCase{sizes: chunks, closed: true})
}

// TestCloseDuringBackpressure is the regression test for the old
// RWMutex-across-send deadlock: submitters blocked on a full queue while
// Close runs must fail their futures with ErrClosed (or complete normally if
// they won the race), queued operations must still execute, and nothing may
// deadlock. The worker is gated so the queue genuinely fills.
func TestCloseDuringBackpressure(t *testing.T) {
	devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 4 << 20})}
	p, err := New(devices, Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Malloc("bp", 64*core.EntryBytes, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	// 16 submitters against a depth-2 queue: well past the queue depth, so
	// some goroutines are parked on the full ring when Close fires. The
	// writes are above inPlaceMaxBytes, so none of them bypasses the queue.
	const submitters = 16
	var wg sync.WaitGroup
	results := make(chan error, submitters)
	buf := make([]byte, 2*inPlaceMaxBytes)
	pattern(buf, 1)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := p.SubmitWrite(h, buf, int64(i%4)*int64(len(buf))).Wait()
			results <- err
		}(i)
	}
	// Close concurrently with the submitters; every Wait above must return.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("submitter failed with %v, want nil or ErrClosed", err)
		}
	}
	// The pool is fully drained: a late submit fails immediately.
	if _, err := p.SubmitWrite(h, buf, 0).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
}

// TestFutureDoubleWaitPanics pins the recycled-future guard: a second Wait on
// a consumed future must panic rather than silently corrupt a recycled one.
func TestFutureDoubleWaitPanics(t *testing.T) {
	// One goroutine, second Wait straight after the first: nothing can have
	// checked the recycled future out in between, so waited is still set.
	p := newAsyncPool(t, 1, 1, 4)
	h, err := p.Malloc("dw", 8*core.EntryBytes, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	f := p.SubmitWrite(h, make([]byte, core.EntryBytes), 0)
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Wait did not panic")
		}
	}()
	_, _ = f.Wait()
}

// TestFutureHoldsNothingAfterFinish: a finished future has let go of its
// handle and its buffer — served, or refused by a closed pool or by a ring
// that closed under it — so the pool of futures never pins a caller's buffer.
// The test looks inside a consumed future, which only it may: nothing is
// submitted between its Wait and the look.
func TestFutureHoldsNothingAfterFinish(t *testing.T) {
	gc := &gatedCodec{Codec: compress.NewBPC(), entered: make(chan struct{}), release: make(chan struct{})}
	dev := core.NewDevice(core.Config{DeviceBytes: 4 << 20, Codec: gc})
	p, err := New([]*core.Device{dev}, Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Malloc("held", 64*core.EntryBytes, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, f *Future, want error) {
		t.Helper()
		if _, err := f.Wait(); !errors.Is(err, want) {
			t.Errorf("%s: err=%v, want %v", what, err, want)
		}
		if f.h != nil || f.buf != nil {
			t.Errorf("%s: the consumed future still holds h=%p buf=%d B", what, f.h, len(f.buf))
		}
	}
	check("served in place", p.SubmitWrite(h, make([]byte, core.EntryBytes), 0), nil)
	check("served from the ring", p.SubmitWrite(h, make([]byte, 2*inPlaceMaxBytes), 0), nil)
	// A submit already in flight on the shard when Close closes it: parked
	// on a full ring (the worker held mid-write, the depth-1 ring filled
	// behind it), it is refused by the ring, not at its enter.
	big := make([]byte, 2*inPlaceMaxBytes)
	gc.armed.Store(true)
	held := p.SubmitWrite(h, big, 0)
	<-gc.entered
	queued := p.SubmitWrite(h, big, 0)
	parked := make(chan *Future)
	go func() { parked <- p.SubmitRead(h, make([]byte, 2*inPlaceMaxBytes), 0) }()
	for p.scheds[0].life.Load()&countMask == 0 {
		runtime.Gosched()
	}
	closed := make(chan error)
	go func() { closed <- p.Close() }()
	check("refused by the ring", <-parked, ErrClosed)
	close(gc.release)
	for _, f := range []*Future{held, queued} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	check("refused by a closed pool", p.SubmitRead(h, make([]byte, core.EntryBytes), 0), ErrClosed)
}
