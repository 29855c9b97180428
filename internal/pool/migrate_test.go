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

// moveEntry is the mover as it was before it moved in chunks — one entry per
// call, ExportEntry+ImportEntry when the codecs match, decode/re-encode when
// they differ — kept as the reference the chunked mover is tested against
// and as the tool for installing a half-finished move by hand. streamBuf
// must have MaxStreamBytes capacity; entryBuf is one entry.
func moveEntry(from, to *core.Allocation, i int, sameCodec bool, streamBuf, entryBuf []byte) error {
	if sameCodec {
		stream, sectors, written, err := from.ExportEntry(i, streamBuf[:0])
		if err != nil {
			return err
		}
		if !written {
			return nil // never-written entries read as zero on both sides
		}
		return to.ImportEntry(i, stream, sectors)
	}
	if err := from.ReadEntry(i, entryBuf); err != nil {
		return err
	}
	return to.WriteEntry(i, entryBuf)
}

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
// while the mover is between two chunks. The move must fail with the typed
// device error, roll back, and leave the handle whole on its source with
// byte-exact contents — and the migration identity must survive the
// failure: what left each device equals what arrived at the other, so both
// shards read the same MigrationBytes (forward prefix out of the source
// plus rollback into it; forward prefix into the destination plus rollback
// out of it). A mover that charged the source for the refused chunk's
// export breaks that by the refused entries.
func TestMigrateDestinationKilledBetweenChunks(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 1 << 20}),
		core.NewDevice(core.Config{DeviceBytes: 1 << 20}),
	}
	p, err := New(devices, Config{Placement: Explicit(0), Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	const entries = 64*migrateChunkEntries + 5
	want := make([]byte, entries*core.EntryBytes)
	pattern(want, 21)
	h, err := p.Malloc("doomed", int64(len(want)), core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Catch the mover between chunks: it needs the route lock exclusively
	// for its next chunk, so while this goroutine holds it shared with the
	// watermark part-way, the destination dies between two chunks. On a
	// loaded box the whole move can commit before this goroutine runs again;
	// then the handle moves home and the attempt repeats.
	var done chan error
	killedAt := 0
	for attempt := 0; killedAt == 0; attempt++ {
		if attempt == 100 {
			t.Fatal("100 moves committed before the watcher saw a watermark")
		}
		for _, d := range devices {
			d.ResetTraffic()
		}
		done = make(chan error, 1)
		go func() { done <- p.MigrateHandle(h, 1) }()
		for committed := false; killedAt == 0 && !committed; {
			h.mu.RLock()
			if m := h.rt.mig; m != nil && m.moved > 0 && m.moved < entries {
				if err := fi.Kill(1); err != nil {
					t.Error(err)
				}
				killedAt = m.moved
			}
			committed = h.rt.shard == 1
			h.mu.RUnlock()
		}
		if killedAt == 0 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := p.MigrateHandle(h, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = <-done
	if !errors.Is(err, core.ErrDeviceFailed) {
		t.Fatalf("move into a killed shard: %v, want core.ErrDeviceFailed", err)
	}
	if killedAt%migrateChunkEntries != 0 {
		t.Errorf("watermark seen at %d, not a chunk boundary", killedAt)
	}
	if h.Shard() != 0 || h.Migrating() {
		t.Fatalf("after rollback: shard %d, migrating %v", h.Shard(), h.Migrating())
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contents differ after the rolled-back move")
	}
	if used := devices[1].DeviceUsed(); used != 0 {
		t.Errorf("killed destination still reserves %d device bytes", used)
	}
	out, in := devices[0].Traffic().MigrationBytes, devices[1].Traffic().MigrationBytes
	if out == 0 || out != in {
		t.Errorf("MigrationBytes shard 0 = %d, shard 1 = %d; want equal and nonzero", out, in)
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
// half-finished move rolled back, and loses and recovers its device tier.
// Every range straddles a mover boundary — a multiple of
// migrateChunkEntries, one of them also the core kernel's sub-batch
// boundary — so each client's operations split at the watermark while a
// chunk lands. Every read must observe that range's latest write; run with
// -race this also proves the chunk-granular watermark handoff publishes
// safely.
func TestMigrateUnderConcurrentIO(t *testing.T) {
	fi := NewFailureInjector()
	p, err := New([]*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}, Config{Placement: Explicit(0), QueueDepth: 8, Workers: 2, Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	const (
		entries    = 6 * migrateChunkEntries
		spanBytes  = 48 * core.EntryBytes // one client's range
		ioBytes    = spanBytes - 64       // leaves room for the unaligned offset
		minRounds  = 40
		subBatch   = 4 * migrateChunkEntries // core's spanBatchEntries
		moverIters = 10
	)
	// First entry of each client's range: the ranges straddle entries 64,
	// 128, 256 (a chunk and a sub-batch boundary) and 320.
	starts := []int{40, 104, subBatch - 24, 296}
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
				// boundaries unaligned, crossing the migration watermark
				// at arbitrary points.
				off := base + int64(i%64)
				pattern(buf, byte(r*minRounds+i))
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
				// Retarget in place and back: the core kernel's migrate
				// passes under the same I/O.
				dev, a := p.Device(h.Shard()), h.Alloc()
				for _, target := range []core.TargetRatio{core.Target4by3x, core.Target2x} {
					if _, err := dev.Retarget(a, target); err != nil {
						errc <- fmt.Errorf("retarget %d: %w", i, err)
						return
					}
				}
			case 1:
				// Half a move, then its rollback.
				if err := halfMoveAndRollback(h, entries/2+migrateChunkEntries); err != nil {
					errc <- fmt.Errorf("rollback %d: %w", i, err)
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

// halfMoveAndRollback is migrateTo cut short: it reserves a destination on
// the other shard, installs the epoch, moves entries [0, upTo) a chunk at a
// time exactly as migrateEntries does, then rolls the move back and frees
// the destination, under the control lock like any mover.
func halfMoveAndRollback(h *Handle, upTo int) error {
	h.ctl.Lock()
	defer h.ctl.Unlock()
	p := h.pool
	src := h.Alloc()
	other := (h.Shard() + 1) % 2
	dst, err := p.devices[other].Malloc(h.name, h.size, src.Target())
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.rt.mig = &handleMigration{dstShard: other, dst: dst}
	h.mu.Unlock()
	for base := 0; base < upTo; base += migrateChunkEntries {
		h.mu.Lock()
		moved, err := moveChunk(src, dst, base, min(base+migrateChunkEntries, upTo), nil)
		h.rt.mig.moved = base + moved
		h.mu.Unlock()
		if err != nil {
			return errors.Join(err, h.rollbackMigration(src, dst, true), dst.Close())
		}
	}
	return errors.Join(h.rollbackMigration(src, dst, true), dst.Close())
}
