package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/nvlink"
)

// countingCodec wraps a Codec with encode/decode call counters — the
// instrument behind the zero-decode migration assertion. It reports the
// inner codec's Name, so two devices wrapping the same algorithm are
// codec-matched in the SameCodecAs sense.
type countingCodec struct {
	inner   compress.Codec
	encodes atomic.Int64
	decodes atomic.Int64
}

func (c *countingCodec) Name() string { return c.inner.Name() }

func (c *countingCodec) AppendCompressed(dst, entry []byte) ([]byte, int) {
	c.encodes.Add(1)
	return c.inner.AppendCompressed(dst, entry)
}

func (c *countingCodec) DecompressInto(dst, comp []byte) error {
	c.decodes.Add(1)
	return c.inner.DecompressInto(dst, comp)
}

// newCodecPool builds a pool whose shards run the given codecs (one device
// per codec, 64 KiB slab each).
func newCodecPool(t *testing.T, codecs ...compress.Codec) *Pool {
	t.Helper()
	devices := make([]*core.Device, len(codecs))
	for i, c := range codecs {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 64 << 10, Codec: c})
	}
	p, err := New(devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// tripwire is an overflow tier that runs a hook on its nth Store from the
// moment it is armed: how these tests stop a move at a known point without a
// hook in the mover. The walker charges the overflow tier once per sub-batch,
// after it has let go of every lock, so a hook that kills the device lands
// between two sub-batches of the move, and one that blocks holds the move
// open there. It needs entries that overflow their target (noise at 2x).
type tripwire struct {
	core.Backend
	left atomic.Int64 // Stores until the hook runs
	mu   sync.Mutex
	hook func() // nil: disarmed
}

func (t *tripwire) Access(ops []core.TierOp) {
	t.Backend.Access(ops)
	for _, op := range ops {
		if op.Store && t.left.Add(-1) == 0 {
			t.mu.Lock()
			if t.hook != nil {
				t.hook()
			}
			t.mu.Unlock()
		}
	}
}

// arm sets the hook to run on the nth Store from now; a nil hook disarms,
// and once that returns no hook runs.
func (t *tripwire) arm(n int64, hook func()) {
	t.mu.Lock()
	t.hook = hook
	t.mu.Unlock()
	t.left.Store(n)
}

// newTripwirePool builds a two-shard pool whose devices' overflow tiers are
// tripwires over the default carve-out. inline retires the devices' span
// workers first, so a move runs on its caller, sub-batch after sub-batch.
func newTripwirePool(t *testing.T, deviceBytes int64, inline bool, cfg Config) (*Pool, [2]*tripwire) {
	t.Helper()
	var trips [2]*tripwire
	devices := make([]*core.Device, 2)
	for i := range devices {
		trips[i] = &tripwire{Backend: core.NewCarveoutBackend(3*deviceBytes, nvlink.DefaultConfig())}
		devices[i] = core.NewDevice(core.Config{DeviceBytes: deviceBytes, Overflow: trips[i]})
		if inline {
			_ = devices[i].Close()
		}
	}
	cfg.Placement = Explicit(0)
	p, err := New(devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, trips
}

// noise fills b with incompressible bytes seeded by tag: four sectors an
// entry, two of them past a 2x target.
func noise(b []byte, tag byte) {
	x := uint64(tag)*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 32)
	}
}

// subBatch is core's spanBatchEntries: the mover checks its destination, and
// charges the tiers, once per this many entries.
const subBatch = 256

// TestMigrateHandleMovesData pins the basic contract: after MigrateHandle
// the handle routes to the new shard, the data is intact, the source
// allocation is released, and both devices account identical
// MigrationBytes.
func TestMigrateHandleMovesData(t *testing.T) {
	p := newTestPool(t, 3, Explicit(0))
	want := make([]byte, 8<<10)
	pattern(want, 5)
	h, err := p.Malloc("m", int64(len(want)), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range p.devices {
		d.ResetTraffic()
	}
	if err := p.MigrateHandle(h, 2); err != nil {
		t.Fatal(err)
	}
	if got := h.Shard(); got != 2 {
		t.Fatalf("handle routes to shard %d after migration, want 2", got)
	}
	if h.Migrating() {
		t.Fatal("handle still reports migrating after cutover")
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted across migration")
	}
	if used := p.devices[0].DeviceUsed(); used != 0 {
		t.Errorf("source shard still holds %d device bytes", used)
	}
	st := p.devices[0].Traffic()
	dt := p.devices[2].Traffic()
	if st.MigrationBytes == 0 || st.MigrationBytes != dt.MigrationBytes {
		t.Errorf("MigrationBytes src=%d dst=%d, want equal and nonzero",
			st.MigrationBytes, dt.MigrationBytes)
	}
	// Migrating to the shard the handle is already on is a no-op.
	if err := p.MigrateHandle(h, 2); err != nil {
		t.Fatalf("same-shard migration: %v", err)
	}
	// New I/O after the move still works through the same handle — the
	// stale-route regression (handles must re-resolve their shard, not
	// cache it at Malloc time).
	pattern(want, 6)
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-migration write through handle corrupted")
	}
}

// TestMigrateZeroDecode asserts the tentpole's no-decode guarantee: when
// source and destination run the same codec, MigrateHandle streams framed
// entries shard-to-shard without a single decode (or re-encode) round-trip.
func TestMigrateZeroDecode(t *testing.T) {
	cc := &countingCodec{inner: compress.NewBPC()}
	p := newCodecPool(t, cc, cc)
	// Nonzero data: all-zero entries shortcut the codec entirely and would
	// vacuously pass.
	want := make([]byte, 16<<10)
	pattern(want, 11)
	h, err := p.Malloc("z", int64(len(want)), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	enc, dec := cc.encodes.Load(), cc.decodes.Load()
	if enc == 0 {
		t.Fatal("writes did not reach the codec; the counter proves nothing")
	}
	if err := p.MigrateHandle(h, 1); err != nil {
		t.Fatal(err)
	}
	if d := cc.decodes.Load() - dec; d != 0 {
		t.Errorf("codec-matched migration decoded %d entries, want 0", d)
	}
	if d := cc.encodes.Load() - enc; d != 0 {
		t.Errorf("codec-matched migration re-encoded %d entries, want 0", d)
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted across stream migration")
	}
}

// TestMigrateCodecMismatch pins the fallback: when the shards disagree on
// codec, migration decodes on the source and re-encodes on the destination,
// and the data still survives.
func TestMigrateCodecMismatch(t *testing.T) {
	bdi, err := compress.ByName("bdi")
	if err != nil {
		t.Fatal(err)
	}
	src := &countingCodec{inner: compress.NewBPC()}
	dst := &countingCodec{inner: bdi}
	p := newCodecPool(t, src, dst)
	want := make([]byte, 4<<10)
	pattern(want, 13)
	h, err := p.Malloc("x", int64(len(want)), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	dec, enc := src.decodes.Load(), dst.encodes.Load()
	if err := p.MigrateHandle(h, 1); err != nil {
		t.Fatal(err)
	}
	if src.decodes.Load() == dec {
		t.Error("mismatched-codec migration never decoded on the source")
	}
	if dst.encodes.Load() == enc {
		t.Error("mismatched-codec migration never encoded on the destination")
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted across transcode migration")
	}
}

// TestMigrateOOMRollback pins the reservation contract: when the
// destination cannot hold the allocation, MigrateHandle fails with
// ErrOutOfMemory, the handle stays routed to its source, the data is
// untouched and the destination keeps nothing.
func TestMigrateOOMRollback(t *testing.T) {
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 4 << 10}),
	}
	p, err := New(devices, Config{Placement: Explicit(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	want := make([]byte, 32<<10)
	pattern(want, 17)
	h, err := p.Malloc("big", int64(len(want)), core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	err = p.MigrateHandle(h, 1)
	if !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("migration into a full shard: %v, want ErrOutOfMemory", err)
	}
	if got := h.Shard(); got != 0 {
		t.Fatalf("failed migration moved the route to shard %d", got)
	}
	if h.Migrating() {
		t.Fatal("failed migration left the handle mid-move")
	}
	if used := devices[1].DeviceUsed(); used != 0 {
		t.Errorf("failed migration leaked %d device bytes on the destination", used)
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failed migration corrupted the source data")
	}
}

// TestMigrateDestinationKilledBetweenChunks kills the destination shard
// while the mover is between two sub-batches (the "chunks" of its name were
// the pool mover's, before the move became core's MoveTo). The move must
// fail with the typed device error, be handed back, and leave the handle
// whole on its source with byte-exact contents — and the migration identity
// must survive the failure: what left each device equals what arrived at the
// other, so both shards read the same MigrationBytes (forward prefix out of
// the source plus hand-back into it; forward prefix into the destination
// plus hand-back out of it).
func TestMigrateDestinationKilledBetweenChunks(t *testing.T) {
	fi := NewFailureInjector()
	p, trips := newTripwirePool(t, 1<<20, false, Config{Injector: fi})
	const entries = 16*subBatch + 5
	want := make([]byte, entries*core.EntryBytes)
	noise(want, 21)
	h, err := p.Malloc("doomed", int64(len(want)), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	p.ResetTraffic()
	// The destination dies part-way through the charging of its second
	// sub-batch; every mover's next one is refused.
	trips[1].arm(subBatch+subBatch/2, func() {
		if err := fi.Kill(1); err != nil {
			t.Error(err)
		}
	})
	err = p.MigrateHandle(h, 1)
	if !errors.Is(err, core.ErrDeviceFailed) {
		t.Fatalf("move into a killed shard: %v, want core.ErrDeviceFailed", err)
	}
	if h.Shard() != 0 || h.Migrating() || h.Alloc().Device() != p.Device(0) {
		t.Fatalf("after the hand-back: shard %d, migrating %v", h.Shard(), h.Migrating())
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contents differ after the handed-back move")
	}
	if used := p.Device(1).DeviceUsed(); used != 0 {
		t.Errorf("killed destination still reserves %d device bytes", used)
	}
	out, in := p.Device(0).Traffic().MigrationBytes, p.Device(1).Traffic().MigrationBytes
	if out == 0 || out != in {
		t.Errorf("MigrationBytes shard 0 = %d, shard 1 = %d; want equal and nonzero", out, in)
	}
	if moved := uint64(entries * 128); out >= 2*moved {
		t.Errorf("MigrationBytes %d: the whole allocation (%d bytes) went over and back, the kill came too late to test anything", out, moved)
	}
	if _, err := p.Recover(1); err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateHandle(h, 1); err != nil {
		t.Fatalf("move after recovery: %v", err)
	}
	if _, err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after the second move: err=%v match=%v", err, bytes.Equal(got, want))
	}
}

// TestMigrateRejects covers the argument guards: foreign handles, bad
// shard indexes, draining and failed destinations.
func TestMigrateRejects(t *testing.T) {
	p := newTestPool(t, 2, Explicit(0))
	other := newTestPool(t, 1, nil)
	h, err := p.Malloc("a", 1<<10, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Malloc("b", 1<<10, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateHandle(foreign, 0); err == nil ||
		!strings.Contains(err.Error(), "another pool") {
		t.Errorf("foreign handle: %v", err)
	}
	if err := p.MigrateHandle(h, 7); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := p.Drain(1); err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateHandle(h, 1); !errors.Is(err, ErrShardDraining) {
		t.Errorf("draining destination: %v, want ErrShardDraining", err)
	}
	if err := p.Reopen(1); err != nil {
		t.Fatal(err)
	}
}

// refusedByFailure reports whether err only says the serving shard's device
// tier is down right now — the one error the stress clients retry.
func refusedByFailure(err error) bool {
	return errors.Is(err, core.ErrDeviceFailed) || errors.Is(err, ErrShardFailed)
}

// TestMigrateUnderConcurrentIO is the stale-shard-routing regression under
// load: goroutines hammer disjoint ranges of one handle — sync byte I/O at
// unaligned offsets plus async submissions — while the allocation live-
// migrates back and forth between shards, is retargeted in place, has a
// half-finished move handed back, and loses and recovers its device tier.
// Every range straddles a mover boundary — a multiple of core's sub-batch,
// one of them also where the span pool splits the move between two workers
// — so each client's operations find their entries on two devices while a
// sub-batch lands. Every read must observe that range's latest write; run
// with -race this also proves the per-entry handoff publishes safely.
func TestMigrateUnderConcurrentIO(t *testing.T) {
	fi := NewFailureInjector()
	p, trips := newTripwirePool(t, 256<<10, false, Config{QueueDepth: 8, Workers: 2, Injector: fi})
	const (
		entries    = 4 * subBatch
		spanBytes  = 48 * core.EntryBytes // one client's range
		ioBytes    = spanBytes - 64       // leaves room for the unaligned offset
		minRounds  = 40
		moverIters = 10
	)
	// First entry of each client's range: the ranges straddle entries 256,
	// 512 (a sub-batch and a span-chunk boundary) and 768, and one sits
	// inside the first sub-batch.
	starts := []int{40, subBatch - 24, 2*subBatch - 24, 3*subBatch - 24}
	h, err := p.Malloc("hot", entries*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var moverDone atomic.Bool
	errc := make(chan error, len(starts)+1)
	for r, start := range starts {
		wg.Add(1)
		go func(r, start int) {
			defer wg.Done()
			base := int64(start * core.EntryBytes)
			buf := make([]byte, ioBytes)
			got := make([]byte, ioBytes)
			// At least minRounds, and on until the mover has been through
			// every phase, so each phase meets live I/O.
			for i := 0; i < minRounds || !moverDone.Load(); i++ {
				// Odd offset inside the range: the I/O spans entry
				// boundaries unaligned, crossing the ownership cut of a move
				// at arbitrary points. Noise, so every entry overflows its
				// target and the tripwires see the moves.
				off := base + int64(i%64)
				noise(buf, byte(r*minRounds+i))
				for {
					var err error
					if r%2 == 0 {
						_, err = h.WriteAt(buf, off)
					} else {
						_, err = p.SubmitWrite(h, buf, off).Wait()
					}
					if err == nil {
						break
					}
					if !refusedByFailure(err) {
						errc <- fmt.Errorf("range %d write: %w", r, err)
						return
					}
					runtime.Gosched() // shard down: retry until Recover
				}
				for {
					_, err := h.ReadAt(got, off)
					if err == nil {
						break
					}
					if !refusedByFailure(err) {
						errc <- fmt.Errorf("range %d read: %w", r, err)
						return
					}
					runtime.Gosched()
				}
				if !bytes.Equal(got, buf) {
					errc <- fmt.Errorf("range %d round %d: torn read during relocation", r, i)
					return
				}
			}
		}(r, start)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer moverDone.Store(true)
		for i := 0; i < moverIters; i++ {
			if err := p.MigrateHandle(h, (h.Shard()+1)%2); err != nil {
				errc <- fmt.Errorf("migration %d: %w", i, err)
				return
			}
			switch i % 3 {
			case 0:
				// Retarget in place and back: the same relayout, one device,
				// under the same I/O.
				dev, a := p.Device(h.Shard()), h.Alloc()
				for _, target := range []core.TargetRatio{core.Target4by3x, core.Target2x} {
					if _, err := dev.Retarget(a, target); err != nil {
						errc <- fmt.Errorf("retarget %d: %w", i, err)
						return
					}
				}
			case 1:
				// Half a move, then its hand-back.
				if err := halfMoveAndRollback(h, trips); err != nil {
					errc <- fmt.Errorf("hand-back %d: %w", i, err)
					return
				}
			case 2:
				// The serving shard loses its device tier and is rebuilt;
				// clients retry what the dead tier refuses.
				shard := h.Shard()
				if err := fi.Kill(shard); err != nil {
					errc <- fmt.Errorf("kill %d: %w", i, err)
					return
				}
				if _, err := p.Recover(shard); err != nil {
					errc <- fmt.Errorf("recover %d: %w", i, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if h.Migrating() {
		t.Error("handle still mid-move after the stress")
	}
	for i, d := range p.devices {
		if i != h.Shard() && d.DeviceUsed() != 0 {
			t.Errorf("shard %d still reserves %d device bytes", i, d.DeviceUsed())
		}
	}
}

// halfMoveAndRollback drives a move that does not finish through the real
// code — MigrateHandle: reserve, install the epoch, run part of the way, hand
// back, release — by having the other shard's device tier die while the move
// is charging its first sub-batch there; every span worker's next sub-batch
// is refused. The tier is rebuilt before it returns. (The name is from when
// the pool kept a mover and a rollback of its own.) A move the tripwire did
// not stop — the clients had not yet written enough for it to see, or one of
// their own stores tripped it too late — simply commits, which the caller's
// loop takes in its stride.
func halfMoveAndRollback(h *Handle, trips [2]*tripwire) error {
	p := h.pool
	other := (h.Shard() + 1) % 2
	dev := p.devices[other]
	trips[other].arm(20, dev.Fail)
	err := p.MigrateHandle(h, other)
	trips[other].arm(0, nil)
	if dev.Failed() {
		if _, _, err := dev.Recover(); err != nil {
			return err
		}
	}
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrDeviceFailed) {
		return err
	}
	if h.Shard() == other || h.Alloc().Device() == dev {
		return fmt.Errorf("a refused move left the handle on shard %d", h.Shard())
	}
	return nil
}
