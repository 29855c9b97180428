package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

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
// path. Queued (an operation above inPlaceMaxBytes): tasks and futures come
// from pools, completion is channel-free, and the worker stages coalesced
// runs in pooled buffers. In place (a one-entry operation on a quiescent
// shard): no task at all, and the future is recycled by Wait.
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

// TestCoalescedCompletionParity pins the per-task results of a coalesced run
// to exactly what uncoalesced execution produces: each future reports its own
// submission's byte count, and a failing run (allocation freed mid-flight)
// replays task by task so each future carries the error WriteAt would have
// returned.
func TestCoalescedCompletionParity(t *testing.T) {
	p := newAsyncPool(t, 1, 1, defaultQueueDepth)
	const chunks = 8
	// Unequal chunks, all above inPlaceMaxBytes so each is queued.
	const base = inPlaceMaxBytes
	sizes := []int{
		base + core.EntryBytes, base + 2*core.EntryBytes, base + core.EntryBytes, base + 3*core.EntryBytes,
		base + core.EntryBytes, base + core.EntryBytes, base + 2*core.EntryBytes, base + core.EntryBytes,
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	h, err := p.Malloc("parity", int64(total), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, total)
	pattern(data, 9)

	// Uncoalesced reference: synchronous WriteAt per chunk.
	wantN := make([]int, chunks)
	off := 0
	for i, s := range sizes {
		n, err := h.WriteAt(data[off:off+s], int64(off))
		if err != nil {
			t.Fatal(err)
		}
		wantN[i] = n
		off += s
	}

	// Coalesced run: same chunks submitted open-loop; each future must
	// report its own chunk's byte count, not the run total.
	futs := make([]*Future, 0, chunks)
	off = 0
	for _, s := range sizes {
		futs = append(futs, p.SubmitWrite(h, data[off:off+s], int64(off)))
		off += s
	}
	for i, f := range futs {
		if n, err := f.Wait(); err != nil || n != wantN[i] {
			t.Fatalf("task %d: coalesced n=%d err=%v, uncoalesced n=%d err=nil", i, n, err, wantN[i])
		}
	}
	if st := p.Stats().Async; st.CoalescedTasks == 0 {
		t.Fatalf("run never coalesced: %+v", st)
	}

	// Failure parity: free the allocation, then submit a coalescible run.
	// The batch fails, the worker replays each task individually, and every
	// future reports the exact ErrFreed WriteAt would return.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	futs = futs[:0]
	off = 0
	for _, s := range sizes {
		futs = append(futs, p.SubmitWrite(h, data[off:off+s], int64(off)))
		off += s
	}
	for i, f := range futs {
		if n, err := f.Wait(); n != 0 || !errors.Is(err, core.ErrFreed) {
			t.Fatalf("freed task %d: n=%d err=%v, want 0/ErrFreed", i, n, err)
		}
	}
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

// TestFutureDoneSelect covers the lazy Done channel: select-users see the
// channel close on completion, whether Done is called before or after the
// operation finishes, and Wait still returns the result afterwards.
func TestFutureDoneSelect(t *testing.T) {
	p := newAsyncPool(t, 1, 1, 4)
	h, err := p.Malloc("done", 8*core.EntryBytes, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, core.EntryBytes)
	f := p.SubmitWrite(h, buf, 0)
	<-f.Done() // Done before/during completion: must close
	if n, err := f.Wait(); err != nil || n != len(buf) {
		t.Fatalf("Wait after Done: n=%d err=%v", n, err)
	}
	// Done called after completion (future already completed, channel
	// materializes closed).
	f = p.SubmitWrite(h, buf, 0)
	for {
		select {
		case <-f.Done():
			if n, err := f.Wait(); err != nil || n != len(buf) {
				t.Fatalf("late Done: n=%d err=%v", n, err)
			}
			return
		default:
		}
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
