package pool

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/core"
)

// Tests for the run-to-completion path (Pool.submit, second case): the ordering
// contract, the telemetry it must keep, and the failure and lifecycle
// behaviour it must share with the queued path.

// TestInPlaceNeverOvertakesQueued pins the ordering contract: with one
// worker per shard a submitter's operations take effect in submission
// order, whichever path serves them. Each round queues a large write and
// waits until the worker has dequeued it — the ring is empty, the write is
// still executing — then submits small writes to the large write's last
// entry, the one it reaches last. "Ring empty" as the dispatch condition
// runs those in place, the large write lands on top of them, and a read
// after everything has completed returns its bytes instead of the last
// small write's.
func TestInPlaceNeverOvertakesQueued(t *testing.T) {
	p := newAsyncPool(t, 1, 1, 8)
	const big = 256 << 10
	const last = big - core.EntryBytes
	h, err := p.Malloc("fifo", big, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	large := make([]byte, big)
	pattern(large, 1)
	var small [4][]byte
	for k := range small {
		small[k] = make([]byte, core.EntryBytes)
	}
	got := make([]byte, core.EntryBytes)
	tn := p.tenants[0]
	for round := 0; round < 25; round++ {
		fl := p.SubmitWrite(h, large, 0)
		for tn.queued.Load() != 0 {
			runtime.Gosched()
		}
		var futs [len(small)]*Future
		for k := range small {
			pattern(small[k], byte(2+round*len(small)+k))
			futs[k] = p.SubmitWrite(h, small[k], last)
		}
		if _, err := fl.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.SubmitRead(h, got, last).Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, small[len(small)-1]) {
			t.Fatalf("round %d: read returned %x..., want the last submitted write %x...",
				round, got[:4], small[len(small)-1][:4])
		}
	}
}

// TestInPlaceTelemetry checks that an operation served in place is counted
// everywhere a queued one is — tenant Submitted, ServedBytes and latency
// histogram, fleet Async.Submitted — plus Async.Inline, and that it never
// shows up as queued.
func TestInPlaceTelemetry(t *testing.T) {
	p := newTenantPool(t, 1, map[string]TenantConfig{"svc": {Priority: 1}})
	door, err := p.Tenant("svc")
	if err != nil {
		t.Fatal(err)
	}
	h, err := door.Malloc("tele", 64*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*core.EntryBytes)
	pattern(buf, 7)
	const ops = 20
	for i := 0; i < ops; i++ {
		submit := p.SubmitWrite
		if i%2 == 1 {
			submit = p.SubmitRead
		}
		if n, err := submit(h, buf, int64(i%8)*core.EntryBytes).Wait(); err != nil || n != len(buf) {
			t.Fatalf("op %d: n=%d err=%v", i, n, err)
		}
	}
	st := door.Stats()
	if st.Submitted != ops || st.ServedBytes != ops*uint64(len(buf)) || st.Latency.Count != ops {
		t.Errorf("tenant stats: submitted %d, served %d B, latency count %d; want %d, %d, %d",
			st.Submitted, st.ServedBytes, st.Latency.Count, ops, ops*len(buf), ops)
	}
	as := p.Stats().Async
	if st.QueueDepth != 0 || as.Submitted-as.Inline != 0 {
		t.Errorf("in-place operations were counted as queued: depth %d, queued %d",
			st.QueueDepth, as.Submitted-as.Inline)
	}
	if as.Submitted != ops || as.Inline != ops {
		t.Errorf("Async = %+v, want Submitted = Inline = %d", as, ops)
	}
	// One operation above the threshold takes the scheduler and leaves
	// Inline alone.
	wide := make([]byte, 2*inPlaceMaxBytes)
	if _, err := p.SubmitWrite(h, wide, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	if as := p.Stats().Async; as.Submitted != ops+1 || as.Inline != ops {
		t.Errorf("after a queued write Async = %+v, want Submitted %d, Inline %d", as, ops+1, ops)
	}
}

// TestInPlaceOnKilledShard: a small operation on a failed shard is refused
// in place with the typed device error and costs no modeled traffic, clock
// or latency sample; after Recover the same operation is served.
func TestInPlaceOnKilledShard(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 1 << 20})}
	p, err := New(devices, Config{Injector: fi, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	h, err := p.Malloc("victim", 64*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, core.EntryBytes)
	pattern(buf, 4)
	if _, err := p.SubmitWrite(h, buf, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := fi.Kill(0); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	clock := p.scheds[0].clock.Load()
	for _, submit := range []func(*Handle, []byte, int64) *Future{p.SubmitWrite, p.SubmitRead} {
		n, err := submit(h, buf, 0).Wait()
		if n != 0 || !errors.Is(err, core.ErrDeviceFailed) {
			t.Fatalf("op on killed shard: n=%d err=%v, want 0/ErrDeviceFailed", n, err)
		}
	}
	after := p.Stats()
	if after.Traffic != before.Traffic {
		t.Errorf("refused operations moved modeled traffic: %+v -> %+v", before.Traffic, after.Traffic)
	}
	if after.Latency.Count != before.Latency.Count || p.scheds[0].clock.Load() != clock {
		t.Error("refused operations advanced the modeled clock or the latency histogram")
	}
	if got := after.Async.Inline - before.Async.Inline; got != 2 {
		t.Errorf("refused operations served in place: %d, want 2", got)
	}
	if _, err := p.Recover(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, core.EntryBytes)
	if _, err := p.SubmitRead(h, got, 0).Wait(); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("read after Recover: err=%v, match=%v", err, bytes.Equal(got, buf))
	}
}

// TestCloseWaitsForInPlaceOps races Close against callers issuing small
// operations: every operation either completes or — once the pool is
// closed, which is how each caller's loop ends — fails with ErrClosed, and
// once Close has returned no operation touches a device any more: the
// in-flight-submit bracket covers operations executing on their submitter
// exactly as it covers enqueues.
func TestCloseWaitsForInPlaceOps(t *testing.T) {
	devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 1 << 20})}
	p, err := New(devices, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Malloc("closing", 64*core.EntryBytes, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, core.EntryBytes)
			pattern(buf, byte(c))
			for i := 0; ; i++ {
				_, err := p.SubmitWrite(h, buf, int64(c)*core.EntryBytes).Wait()
				if i == 0 {
					started <- struct{}{}
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("caller %d: %v, want nil or ErrClosed", c, err)
					}
					return
				}
			}
		}(c)
	}
	for c := 0; c < callers; c++ {
		<-started
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	writes := p.Device(0).Traffic().Writes
	wg.Wait()
	if got := p.Device(0).Traffic().Writes; got != writes {
		t.Errorf("%d writes reached the device after Close returned", got-writes)
	}
	if as := p.Stats().Async; as.Inline == 0 {
		t.Errorf("no operation was served in place: %+v", as)
	}
}

// TestInPlaceSplitsAtMigrationWatermark holds a cross-shard move open after
// its first sub-batch and submits a small write straddling the ownership cut
// (the "watermark" of its name was the pool mover's; the cut is core's
// per-entry epoch now): the entry below it must land on the destination
// device and the entries above it on the source, in one in-place operation.
func TestInPlaceSplitsAtMigrationWatermark(t *testing.T) {
	p, trips := newTripwirePool(t, 256<<10, true, Config{})
	const entries, cut = 2 * subBatch, subBatch
	h, err := p.Malloc("moving", entries*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]byte, entries*core.EntryBytes)
	noise(base, 1)
	if _, err := h.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// The mover stops where it charges the destination for its first
	// sub-batch: entries [0, cut) have moved, the rest have not.
	reached, release := make(chan struct{}), make(chan struct{})
	trips[1].arm(1, func() {
		close(reached)
		<-release
	})
	moved := make(chan error, 1)
	go func() { moved <- p.MigrateHandle(h, 1) }()
	<-reached
	if !h.Alloc().Migrating() || h.Shard() != 0 {
		t.Fatalf("held-open move: migrating %v, shard %d", h.Alloc().Migrating(), h.Shard())
	}

	buf := make([]byte, 3*core.EntryBytes)
	noise(buf, 9)
	off := int64(cut-1) * core.EntryBytes
	w0, w1 := p.Device(0).Traffic().Writes, p.Device(1).Traffic().Writes
	inline := p.Stats().Async.Inline
	if n, err := p.SubmitWrite(h, buf, off).Wait(); err != nil || n != len(buf) {
		t.Fatalf("straddling write: n=%d err=%v", n, err)
	}
	if got := p.Stats().Async.Inline - inline; got != 1 {
		t.Fatalf("straddling write served in place %d times, want 1", got)
	}
	if d0, d1 := p.Device(0).Traffic().Writes-w0, p.Device(1).Traffic().Writes-w1; d0 != 2 || d1 != 1 {
		t.Errorf("entry writes: source %d, destination %d; want 2 and 1", d0, d1)
	}
	got := make([]byte, len(buf))
	if _, err := p.SubmitRead(h, got, off).Wait(); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("straddling read: err=%v, match=%v", err, bytes.Equal(got, buf))
	}
	// Let the move finish; the handle is whole on the other shard and holds
	// the straddling write.
	close(release)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if h.Shard() != 1 || h.Alloc().Migrating() || p.Device(0).DeviceUsed() != 0 {
		t.Fatalf("after the move: shard %d, migrating %v, %d bytes left behind", h.Shard(), h.Alloc().Migrating(), p.Device(0).DeviceUsed())
	}
	copy(base[off:], buf)
	all := make([]byte, len(base))
	if _, err := h.ReadAt(all, 0); err != nil || !bytes.Equal(all, base) {
		t.Fatalf("read after the move: err=%v, match=%v", err, bytes.Equal(all, base))
	}
}
