package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"buddy/internal/core"
)

// TestDrainEvacuatesShard pins the drain contract: every resident moves to
// another shard, handles keep working, the drained shard refuses new
// placements until Reopen, and Stats reports the lifecycle flag.
func TestDrainEvacuatesShard(t *testing.T) {
	p := newTestPool(t, 3, Explicit(0))
	bufs := make([][]byte, 4)
	handles := make([]*Handle, 4)
	for i := range handles {
		bufs[i] = make([]byte, 4<<10)
		pattern(bufs[i], byte(i))
		h, err := p.Malloc(fmt.Sprintf("a%d", i), int64(len(bufs[i])), core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(bufs[i], 0); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	if used := p.devices[0].DeviceUsed(); used != 0 {
		t.Errorf("drained shard still holds %d device bytes", used)
	}
	got := make([]byte, 4<<10)
	for i, h := range handles {
		if h.Shard() == 0 {
			t.Errorf("handle %d still routed to the drained shard", i)
		}
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Errorf("handle %d corrupted by evacuation", i)
		}
	}
	if !p.Stats().Shards[0].Draining {
		t.Error("Stats does not report the shard draining")
	}
	// Explicit placement on the draining shard must go elsewhere.
	h, err := p.Malloc("post", 1<<10, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shard() == 0 {
		t.Error("draining shard accepted a placement")
	}
	if err := p.Reopen(0); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Shards[0].Draining {
		t.Error("shard still draining after Reopen")
	}
	h2, err := p.Malloc("reopened", 1<<10, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Shard() != 0 {
		t.Errorf("reopened shard refused an explicit placement (got shard %d)", h2.Shard())
	}
}

// TestDrainStateMachine covers the lifecycle edges: double-drain, draining
// a failed shard, reopening a failed shard, double-kill, and drain after
// Close.
func TestDrainStateMachine(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(0); !errors.Is(err, ErrShardDraining) {
		t.Errorf("double drain: %v, want ErrShardDraining", err)
	}
	// A reopened healthy shard drains again cleanly.
	if err := p.Reopen(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Reopen(0); err != nil {
		t.Errorf("reopening a healthy shard: %v, want no-op", err)
	}
	if err := fi.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := fi.Kill(1); !errors.Is(err, ErrShardFailed) {
		t.Errorf("double kill: %v, want ErrShardFailed", err)
	}
	if err := p.Drain(1); !errors.Is(err, ErrShardFailed) {
		t.Errorf("draining a failed shard: %v, want ErrShardFailed", err)
	}
	if err := p.Reopen(1); !errors.Is(err, ErrShardFailed) {
		t.Errorf("reopening a failed shard: %v, want ErrShardFailed", err)
	}
	if _, err := p.Recover(0); err == nil {
		t.Error("recovering a healthy shard succeeded")
	}
	if _, err := p.Recover(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(0); !errors.Is(err, ErrClosed) {
		t.Errorf("drain after Close: %v, want ErrClosed", err)
	}
}

// TestKillMidCoalescedSpan is the satellite -race stress: a shard dies
// while its workers are streaming coalesced spans. Every in-flight future
// must complete — success or an error wrapping core.ErrDeviceFailed, never
// a deadlock — and after Recover the pool serves again with zero lost
// bytes: every write that reported success is still readable.
func TestKillMidCoalescedSpan(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 256 << 10}),
	}
	p, err := New(devices, Config{Injector: fi, QueueDepth: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	// Chunks above inPlaceMaxBytes: every write is queued, so adjacent ones
	// meet in a worker's window and coalesce.
	const (
		entries = 2048
		chunk   = 2 * inPlaceMaxBytes
		nWrites = entries * core.EntryBytes / chunk
	)
	h, err := p.Malloc("serve", entries*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: every region holds a known value before the failure round.
	base := make([]byte, entries*core.EntryBytes)
	pattern(base, 1)
	if _, err := h.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// Failure round: adjacent same-handle writes (coalescing bait) racing a
	// mid-serve kill.
	bufs := make([][]byte, nWrites)
	futs := make([]*Future, nWrites)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range futs {
			bufs[i] = make([]byte, chunk)
			pattern(bufs[i], byte(i+2))
			futs[i] = p.SubmitWrite(h, bufs[i], int64(i*chunk))
		}
	}()
	if err := fi.Kill(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Futures are single-consume (recycled through a sync.Pool): record
	// each verdict at its one Wait.
	werrs := make([]error, nWrites)
	okWrites := 0
	for i, f := range futs {
		_, err := f.Wait()
		werrs[i] = err
		switch {
		case err == nil:
			okWrites++
		case errors.Is(err, core.ErrDeviceFailed):
		default:
			t.Fatalf("write %d failed with untyped error: %v", i, err)
		}
	}
	if _, err := p.Recover(0); err != nil {
		t.Fatal(err)
	}
	// Zero lost bytes: acknowledged writes read back as written, refused
	// writes left the baseline intact.
	got := make([]byte, chunk)
	for i := range futs {
		if _, err := h.ReadAt(got, int64(i*chunk)); err != nil {
			t.Fatal(err)
		}
		werr := werrs[i]
		if werr == nil && !bytes.Equal(got, bufs[i]) {
			t.Fatalf("acknowledged write %d lost after recovery", i)
		}
		if werr != nil && !bytes.Equal(got, bufs[i]) && !bytes.Equal(got, base[i*chunk:(i+1)*chunk]) {
			t.Fatalf("refused write %d left region %d torn", i, i)
		}
	}
	t.Logf("kill landed after %d/%d acknowledged writes", okWrites, nWrites)
}

// TestDrainDuringBackpressure drains a shard while its submission queue is
// saturated: the queue keeps draining, evacuation proceeds behind it, and
// every future completes.
func TestDrainDuringBackpressure(t *testing.T) {
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{Placement: Explicit(0), QueueDepth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	h, err := p.Malloc("busy", 32<<10, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	const nWrites = 64
	futs := make(chan *Future, nWrites)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2<<10) // above inPlaceMaxBytes: always queued
		pattern(buf, 9)
		for i := 0; i < nWrites; i++ {
			// Blocks whenever the depth-2 queue is full — the drain below
			// runs against sustained backpressure.
			futs <- p.SubmitWrite(h, buf, int64(i%16)<<11)
		}
		close(futs)
	}()
	if err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	if h.Shard() != 1 {
		t.Errorf("handle on shard %d after drain, want 1", h.Shard())
	}
	wg.Wait()
	for f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Errorf("future failed across drain: %v", err)
		}
	}
}

// TestControlPlaneRefusesAfterClose pins closed as the state every shard
// ends in: after Close, every submit and control call — the ones that move
// a handle, kill or rebuild a shard, change its state or place an
// allocation — refuses with ErrClosed, while the live handle keeps its I/O
// and its Close.
func TestControlPlaneRefusesAfterClose(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Malloc("live", 8*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*core.EntryBytes)
	pattern(data, 4)
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	home := h.Shard()
	other := 1 - home
	plan := &core.ReprofilePlan{Decisions: []core.ReprofileDecision{{Alloc: h.Alloc(), Old: core.Target2x, New: core.Target1x}}}
	calls := []struct {
		name string
		call func() error
	}{
		{"MigrateHandle", func() error { return p.MigrateHandle(h, other) }},
		{"Kill", func() error { return fi.Kill(other) }},
		{"Recover", func() error { _, err := p.Recover(other); return err }},
		{"Reopen", func() error { return p.Reopen(other) }},
		{"Drain", func() error { return p.Drain(other) }},
		{"Rebalance", func() error { _, err := p.Rebalance(); return err }},
		{"ApplyReprofile", func() error { _, err := p.ApplyReprofile(plan); return err }},
		{"Malloc", func() error { _, err := p.Malloc("late", 1<<10, core.Target1x); return err }},
		{"SubmitWrite", func() error { _, err := p.SubmitWrite(h, data[:core.EntryBytes], 0).Wait(); return err }},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", c.name, err)
		}
	}
	if st := p.Stats(); h.Shard() != home || st.Shards[other].Failed || st.Shards[other].Draining || h.Target() != core.Target2x {
		t.Errorf("a refused call changed the fleet: handle on shard %d (placed on %d), shard %d %+v, target %s",
			h.Shard(), home, other, st.Shards[other].ShardLoad, h.Target())
	}
	pattern(data, 5)
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt after Close: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt after Close: err=%v, match=%v", err, bytes.Equal(got, data))
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Handle.Close after Close: %v", err)
	}
}

// TestCloseStopsDataAndControlPlane closes the pool while submitters write
// small (in-place) and large (queued) operations to one handle and a
// migrator moves that handle between two shards in a loop. Every operation
// succeeds or fails with ErrClosed; once Close has returned no device's
// traffic moves, and the migrator's next call is refused.
func TestCloseStopsDataAndControlPlane(t *testing.T) {
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 1 << 20}),
		core.NewDevice(core.Config{DeviceBytes: 1 << 20}),
	}
	p, err := New(devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 64
	h, err := p.Malloc("contended", entries*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 4
	var wg sync.WaitGroup
	var ops, moves atomic.Int64
	done := make(chan struct{})
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			small := make([]byte, core.EntryBytes)
			large := make([]byte, 2*inPlaceMaxBytes)
			pattern(small, byte(c))
			pattern(large, byte(c+submitters))
			for i := 0; ; i++ {
				buf := small
				if i%2 == 1 {
					buf = large
				}
				off := int64((c*8+i)%(entries-len(buf)/core.EntryBytes)) * core.EntryBytes
				if _, err := p.SubmitWrite(h, buf, off).Wait(); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("submitter %d: %v, want nil or ErrClosed", c, err)
					}
					return
				}
				ops.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() { // migrator
		defer wg.Done()
		for {
			err := p.MigrateHandle(h, 1-h.Shard())
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				t.Errorf("MigrateHandle: %v", err)
				return
			}
			moves.Add(1)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for ops.Load() < 4*submitters || moves.Load() < 4 {
		runtime.Gosched()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	traffic := func() (out []core.Traffic) {
		for i := range devices {
			out = append(out, p.Device(i).Traffic())
		}
		return out
	}
	before := traffic()
	close(done)
	wg.Wait()
	for i, tr := range traffic() {
		if b := before[i]; tr.Writes != b.Writes || tr.Reads != b.Reads || tr.MigrationBytes != b.MigrationBytes {
			t.Errorf("shard %d moved after Close returned: writes %d->%d, reads %d->%d, migration bytes %d->%d",
				i, b.Writes, tr.Writes, b.Reads, tr.Reads, b.MigrationBytes, tr.MigrationBytes)
		}
	}
	if err := p.MigrateHandle(h, 1-h.Shard()); !errors.Is(err, ErrClosed) {
		t.Errorf("migration after Close: %v, want ErrClosed", err)
	}
	t.Logf("%d operations and %d moves before Close", ops.Load(), moves.Load())
}
